//! The register tiles: one [`GemmBackend`] per ISA level, each a
//! `#[target_feature]` instantiation of the generic packed driver in
//! [`crate::micro`] on one [`SimdF64`](crate::simd::SimdF64) register
//! shape.
//!
//! | kernel            | tile `MR×NR`                          | register type   |
//! |-------------------|---------------------------------------|-----------------|
//! | `baseline`        | 4×8                                   | `PortableF64x4` |
//! | `avx2`            | 4×8                                   | `FmaF64x4`      |
//! | `avx512`          | 8×8                                   | `FmaF64x8`      |
//! | `avx512` (m ≤ 4)  | 4×8                                   | `FmaF64x8`      |
//! | `avx512`          | 4×16 when `n` is a multiple of 16     | `FmaF64x8`      |
//!
//! The 4×16 row wins over the other two; `NR` follows `spec.n` alone, so
//! `B` panels survive row fusion. Each tile shape is one
//! `#[target_feature]` wrapper around the driver's batch loop; a backend
//! validates the batch once and picks the wrapper from the (fused) spec.
//! Whether the host can run a tile is its [`Isa`] against
//! [`Isa::detect`]; no tile probes the CPU itself. A new architecture (or
//! element type) is one more block here plus its arm in
//! [`backend_for`](crate::backend::backend_for).

use crate::backend::GemmBackend;
use crate::kernels::Isa;
use crate::micro::{checked_batch, gemm_batched, PackedOperands};
use crate::simd::PortableF64x4;
use crate::spec::{GemmBatch, GemmSpec};

/// Portable kernel: 4×8 tiles over [`PortableF64x4`] (always supported;
/// unfused multiply-add, so no libm `fma` on any host).
#[derive(Debug, Clone, Copy)]
pub struct BaselineKernel;

impl GemmBackend for BaselineKernel {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn isa(&self) -> Isa {
        Isa::Baseline
    }

    fn tile(&self, _spec: &GemmSpec) -> (usize, usize) {
        (4, 8)
    }

    // SAFETY: contract documented on `GemmBackend::run_batched`; this
    // kernel has no ISA requirement and `checked_batch` validates the
    // operands.
    unsafe fn run_batched(
        &self,
        spec: &GemmSpec,
        batch: &GemmBatch,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        let Some((spec, batch, packed)) = checked_batch(self, spec, batch, a, b, c, packed) else {
            return;
        };
        // SAFETY: batch, operands and panels validated; no ISA requirement.
        unsafe { gemm_batched::<PortableF64x4, 4, 2>(&spec, &batch, a, b, c, packed) }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86_64::{Avx2Kernel, Avx512Kernel};

#[cfg(target_arch = "x86_64")]
mod x86_64 {
    use super::*;
    use crate::simd::{FmaF64x4, FmaF64x8};

    /// AVX2+FMA kernel (paper's "Haswell" configuration): 4×8 tiles, two
    /// `ymm` accumulator columns.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2Kernel;

    /// # Safety
    /// Same contract as [`gemm_batched`], plus the CPU must support AVX2
    /// and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tiled_avx2(
        spec: &GemmSpec,
        batch: &GemmBatch,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        // SAFETY: forwarded contract.
        unsafe { gemm_batched::<FmaF64x4, 4, 2>(spec, batch, a, b, c, packed) }
    }

    impl GemmBackend for Avx2Kernel {
        fn name(&self) -> &'static str {
            "avx2"
        }

        fn isa(&self) -> Isa {
            Isa::Avx2
        }

        fn tile(&self, _spec: &GemmSpec) -> (usize, usize) {
            (4, 8)
        }

        // SAFETY: contract documented on `GemmBackend::run_batched` — the
        // caller checked `isa() <= Isa::detect()`; `checked_batch`
        // validates the operands.
        unsafe fn run_batched(
            &self,
            spec: &GemmSpec,
            batch: &GemmBatch,
            a: &[f64],
            b: &[f64],
            c: &mut [f64],
            packed: PackedOperands<'_>,
        ) {
            let Some((spec, batch, packed)) = checked_batch(self, spec, batch, a, b, c, packed)
            else {
                return;
            };
            // SAFETY: the trait contract `Self::isa() <= Isa::detect()` means
            // `Isa::Avx2 <= Isa::detect()`, which probed AVX2+FMA.
            unsafe { tiled_avx2(&spec, &batch, a, b, c, packed) }
        }
    }

    /// AVX-512 kernel (paper's "Skylake" configuration). Shape-specialized
    /// like a LIBXSMM dispatch table: 4×16 tiles (two `zmm` accumulator
    /// columns, fewer broadcast loads per FMA) when `n` is a multiple of
    /// 16, the fused `d ≥ 1` derivatives at even node counts; otherwise
    /// one `zmm` column — an exact fit for the zero-padded `n_pad = 8`
    /// AoSoA layout of the fused `d = 0` derivative — 8 rows high, or 4
    /// when `m ≤ 4` (orders 2–4), where 8 rows would compute twice the
    /// rows they keep.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx512Kernel;

    /// One AVX-512 wrapper per tile shape `MR × NV·8`.
    macro_rules! avx512_tile {
        ($name:ident, $mr:literal, $nv:literal) => {
            /// # Safety
            /// Same contract as [`gemm_batched`], plus the CPU must
            /// support AVX-512F, AVX-512VL and FMA.
            #[target_feature(enable = "avx512f,avx512vl,fma")]
            unsafe fn $name(
                spec: &GemmSpec,
                batch: &GemmBatch,
                a: &[f64],
                b: &[f64],
                c: &mut [f64],
                packed: PackedOperands<'_>,
            ) {
                // SAFETY: forwarded contract.
                unsafe { gemm_batched::<FmaF64x8, $mr, $nv>(spec, batch, a, b, c, packed) }
            }
        };
    }
    avx512_tile!(tiled_avx512_8x8, 8, 1);
    avx512_tile!(tiled_avx512_4x8, 4, 1);
    avx512_tile!(tiled_avx512_4x16, 4, 2);

    impl GemmBackend for Avx512Kernel {
        fn name(&self) -> &'static str {
            "avx512"
        }

        fn isa(&self) -> Isa {
            Isa::Avx512
        }

        fn tile(&self, spec: &GemmSpec) -> (usize, usize) {
            if spec.n >= 16 && spec.n % 16 == 0 {
                (4, 16)
            } else if spec.m <= 4 {
                (4, 8)
            } else {
                (8, 8)
            }
        }

        // SAFETY: contract documented on `GemmBackend::run_batched` — the
        // caller checked `isa() <= Isa::detect()`; `checked_batch`
        // validates the operands.
        unsafe fn run_batched(
            &self,
            spec: &GemmSpec,
            batch: &GemmBatch,
            a: &[f64],
            b: &[f64],
            c: &mut [f64],
            packed: PackedOperands<'_>,
        ) {
            let Some((spec, batch, packed)) = checked_batch(self, spec, batch, a, b, c, packed)
            else {
                return;
            };
            // SAFETY: the trait contract `Self::isa() <= Isa::detect()` means
            // `Isa::detect() == Isa::Avx512`, which probed AVX-512F/VL, AVX2
            // and FMA.
            unsafe {
                match self.tile(&spec) {
                    (4, 16) => tiled_avx512_4x16(&spec, &batch, a, b, c, packed),
                    (4, 8) => tiled_avx512_4x8(&spec, &batch, a, b, c, packed),
                    _ => tiled_avx512_8x8(&spec, &batch, a, b, c, packed),
                }
            }
        }
    }
}
