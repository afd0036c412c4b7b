//! The register tiles: one [`GemmBackend`] per ISA level, each a
//! `#[target_feature]` instantiation of the generic packed driver in
//! [`crate::micro`] on one [`SimdF64`](crate::simd::SimdF64) register
//! shape.
//!
//! | kernel     | tile `MR×NR`                          | register type   |
//! |------------|---------------------------------------|-----------------|
//! | `baseline` | 4×8                                   | `PortableF64x4` |
//! | `avx2`     | 4×8                                   | `FmaF64x4`      |
//! | `avx512`   | 8×8, or 4×16 when `n` is a multiple of 16 | `FmaF64x8`  |
//!
//! A new architecture (or element type) is one more block here plus its
//! entry in [`backends`](crate::backend::backends).

use crate::backend::GemmBackend;
use crate::kernels::Isa;
use crate::micro::{check_kernel_args, gemm_tiled_dispatch, PackedOperands};
use crate::simd::PortableF64x4;
use crate::spec::GemmSpec;

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

    fn supported(&self) -> bool {
        true
    }

    fn tile(&self, _spec: &GemmSpec) -> (usize, usize) {
        (4, 8)
    }

    // SAFETY: contract documented on `GemmBackend::execute`; this kernel
    // has no ISA requirement and the body validates operand shapes itself.
    unsafe fn execute(
        &self,
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        check_kernel_args(self.name(), self.tile(spec), spec, a, b, c, packed);
        // SAFETY: operands and panels validated; no ISA requirement.
        unsafe { gemm_tiled_dispatch::<PortableF64x4, 4, 2>(spec, a, b, c, packed) }
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
    /// Same contract as [`gemm_tiled_dispatch`], plus the CPU must
    /// support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tiled_avx2(
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        // SAFETY: forwarded contract.
        unsafe { gemm_tiled_dispatch::<FmaF64x4, 4, 2>(spec, a, b, c, packed) }
    }

    impl GemmBackend for Avx2Kernel {
        fn name(&self) -> &'static str {
            "avx2"
        }

        fn isa(&self) -> Isa {
            Isa::Avx2
        }

        fn supported(&self) -> bool {
            // Miri interprets portable Rust only — never report an ISA path.
            !cfg!(miri)
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }

        fn tile(&self, _spec: &GemmSpec) -> (usize, usize) {
            (4, 8)
        }

        // SAFETY: contract documented on `GemmBackend::execute` — the
        // caller checked `supported()`; the body validates operand shapes.
        unsafe fn execute(
            &self,
            spec: &GemmSpec,
            a: &[f64],
            b: &[f64],
            c: &mut [f64],
            packed: PackedOperands<'_>,
        ) {
            check_kernel_args(self.name(), self.tile(spec), spec, a, b, c, packed);
            // SAFETY: caller guarantees AVX2+FMA (trait contract).
            unsafe { tiled_avx2(spec, a, b, c, packed) }
        }
    }

    /// AVX-512 kernel (paper's "Skylake" configuration). Shape-specialized
    /// like a LIBXSMM dispatch table: 8×8 tiles (one `zmm` accumulator
    /// column) for narrow outputs — an exact fit for the zero-padded
    /// `n_pad = 8` AoSoA layout of the fused `d = 0` derivative — and 4×16
    /// tiles (two columns, fewer broadcast loads per FMA) when `n` is a
    /// multiple of 16, the fused `d ≥ 1` derivatives at even node counts.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx512Kernel;

    /// # Safety
    /// Same contract as [`gemm_tiled_dispatch`], plus the CPU must
    /// support AVX-512F, AVX-512VL and FMA.
    #[target_feature(enable = "avx512f,avx512vl,fma")]
    unsafe fn tiled_avx512_8x8(
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        // SAFETY: forwarded contract.
        unsafe { gemm_tiled_dispatch::<FmaF64x8, 8, 1>(spec, a, b, c, packed) }
    }

    /// # Safety
    /// Same contract as [`gemm_tiled_dispatch`], plus the CPU must
    /// support AVX-512F, AVX-512VL and FMA.
    #[target_feature(enable = "avx512f,avx512vl,fma")]
    unsafe fn tiled_avx512_4x16(
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        // SAFETY: forwarded contract.
        unsafe { gemm_tiled_dispatch::<FmaF64x8, 4, 2>(spec, a, b, c, packed) }
    }

    impl GemmBackend for Avx512Kernel {
        fn name(&self) -> &'static str {
            "avx512"
        }

        fn isa(&self) -> Isa {
            Isa::Avx512
        }

        fn supported(&self) -> bool {
            // Miri interprets portable Rust only — never report an ISA path.
            !cfg!(miri)
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("fma")
        }

        fn tile(&self, spec: &GemmSpec) -> (usize, usize) {
            if spec.n >= 16 && spec.n % 16 == 0 {
                (4, 16)
            } else {
                (8, 8)
            }
        }

        // SAFETY: contract documented on `GemmBackend::execute` — the
        // caller checked `supported()`; the body validates operand shapes.
        unsafe fn execute(
            &self,
            spec: &GemmSpec,
            a: &[f64],
            b: &[f64],
            c: &mut [f64],
            packed: PackedOperands<'_>,
        ) {
            let tile = self.tile(spec);
            check_kernel_args(self.name(), tile, spec, a, b, c, packed);
            // SAFETY: caller guarantees AVX-512F/VL+FMA (trait contract).
            unsafe {
                if tile == (4, 16) {
                    tiled_avx512_4x16(spec, a, b, c, packed)
                } else {
                    tiled_avx512_8x8(spec, a, b, c, packed)
                }
            }
        }
    }
}
