//! # aderdg-tensor
//!
//! Memory-layout substrate for the linear ADER-DG kernels: 64-byte-aligned
//! buffers, padded AoS / AoSoA layout descriptors for element-local
//! degree-of-freedom tensors, the layout transposes used by the AoSoA
//! kernel (paper Sec. V), and the portable SIMD layer plus the one SIMD
//! level ([`Isa`]) that sets the padding and dispatches the GEMM tiles and
//! lane kernels ([`simd`]). The matrix slices of paper Fig. 3 (offset +
//! slice stride) need no view type: the GEMM addresses them through
//! offsets and leading dimensions.
//!
//! Everything in this crate is deliberately *mechanism*, not policy: the
//! kernel crates decide which layout each tensor uses; this crate guarantees
//! alignment, zero-padding and correct index arithmetic.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod aligned;
pub mod layout;
pub mod lcg;
pub mod padding;
pub mod simd;
pub mod transpose;

pub use aligned::{AlignedVec, ALIGNMENT};
pub use layout::{DofLayout, FaceLayout, LayoutKind};
pub use lcg::Lcg;
pub use padding::{pad_to, pad_to_simd, padding_overhead};
pub use simd::Isa;
pub use transpose::{
    aos_to_aosoa, aosoa_to_aos, aosoa_to_aos_rows, convert, transpose_matrix,
    transpose_matrix_padded,
};
