//! SIMD padding arithmetic.
//!
//! The Kernel Generator in the paper zero-pads the leading dimension of
//! every tensor to the next multiple of the SIMD vector length so that each
//! matrix slice stays aligned (Sec. III-A); the same architecture switch
//! (Haswell/AVX2 vs. Skylake/AVX-512) picks the GEMM kernels. Here that
//! switch is one [`Isa`] level, padded to [`Isa::width_doubles`]. These
//! helpers centralize the arithmetic; the level itself is part of every
//! layout descriptor.

use crate::simd::Isa;

/// Rounds `n` up to the next multiple of `w` (`w > 0`).
#[inline]
pub const fn pad_to(n: usize, w: usize) -> usize {
    debug_assert!(w > 0);
    n.div_ceil(w) * w
}

/// Rounds `n` up to the next multiple of `isa`'s register width.
#[inline]
pub const fn pad_to_simd(n: usize, isa: Isa) -> usize {
    pad_to(n, isa.width_doubles())
}

/// Fraction of wasted (zero-padded) entries when padding `n` at `isa`.
///
/// On AVX-512 the AoSoA layout pads the x-dimension; an x-extent that is
/// already a multiple of 8 has zero overhead ("order 8 is a sweetspot"),
/// while an extent of 9 pads to 16 and nearly doubles the stored lines
/// ("order 9 suffers from a particularly large padding overhead",
/// Sec. V-A).
#[inline]
pub fn padding_overhead(n: usize, isa: Isa) -> f64 {
    let p = pad_to_simd(n, isa);
    (p - n) as f64 / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(pad_to_simd(1, Isa::Baseline), 2);
        assert_eq!(pad_to_simd(1, Isa::Avx2), 4);
        assert_eq!(pad_to_simd(1, Isa::Avx512), 8);
        assert_eq!(pad_to_simd(21, Isa::Avx512), 24);
    }

    #[test]
    fn pad_arithmetic() {
        assert_eq!(pad_to(0, 8), 0);
        assert_eq!(pad_to(1, 8), 8);
        assert_eq!(pad_to(8, 8), 8);
        assert_eq!(pad_to(9, 8), 16);
        assert_eq!(pad_to(21, 4), 24);
        assert_eq!(pad_to(21, 8), 24);
        assert_eq!(pad_to(21, 2), 22);
    }

    #[test]
    fn paper_sweetspot_order8_vs_order9() {
        // The paper's AVX-512 sweetspot statement maps to an x-extent of 8
        // (no padding) vs 9 (pads to 16).
        assert_eq!(padding_overhead(8, Isa::Avx512), 0.0);
        let o9 = padding_overhead(9, Isa::Avx512);
        assert!(o9 > 0.4 && o9 < 0.5, "overhead {o9}");
    }

    #[test]
    fn host_width_is_valid() {
        let w = pad_to_simd(1, Isa::detect());
        assert!(matches!(w, 2 | 4 | 8));
    }
}
