//! SIMD padding arithmetic.
//!
//! The Kernel Generator in the paper zero-pads the leading dimension of
//! every tensor to the next multiple of the SIMD vector length so that each
//! matrix slice stays aligned (Sec. III-A). These helpers centralize that
//! arithmetic; the actual pad value is part of every layout descriptor.

/// SIMD vector width in doubles, i.e. the unit the leading tensor dimension
/// is padded to. Mirrors the architecture switch of the paper's Kernel
/// Generator (Haswell/AVX2 vs. Skylake/AVX-512).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdWidth {
    /// 128-bit SSE2 / NEON: 2 doubles.
    W2,
    /// 256-bit AVX2: 4 doubles (paper's "Haswell" configuration).
    W4,
    /// 512-bit AVX-512: 8 doubles (paper's "Skylake" configuration).
    W8,
}

impl SimdWidth {
    /// Number of doubles per SIMD register.
    #[inline]
    pub const fn doubles(self) -> usize {
        match self {
            SimdWidth::W2 => 2,
            SimdWidth::W4 => 4,
            SimdWidth::W8 => 8,
        }
    }

    /// Register width in bits (for reporting, e.g. the Fig. 9 mix).
    #[inline]
    pub const fn bits(self) -> usize {
        self.doubles() * 64
    }

    /// All widths, widest first (used by the instruction-mix model: the
    /// compiler packs at the widest width first, remainders at narrower
    /// widths, leftovers scalar).
    pub const ALL_DESC: [SimdWidth; 3] = [SimdWidth::W8, SimdWidth::W4, SimdWidth::W2];

    /// The widest width supported by the *host* CPU, detected at runtime.
    /// Falls back to `W2` on non-x86 targets (128-bit NEON et al.).
    pub fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdWidth::W8;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdWidth::W4;
            }
            SimdWidth::W2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdWidth::W2
        }
    }
}

/// Rounds `n` up to the next multiple of `w` (`w > 0`).
#[inline]
pub const fn pad_to(n: usize, w: usize) -> usize {
    debug_assert!(w > 0);
    n.div_ceil(w) * w
}

/// Rounds `n` up to the next multiple of the SIMD width.
#[inline]
pub const fn pad_to_simd(n: usize, w: SimdWidth) -> usize {
    pad_to(n, w.doubles())
}

/// Fraction of wasted (zero-padded) entries when padding `n` to width `w`.
///
/// The paper notes that order `N = 8` (9 nodes per dimension... no: 8+1)
/// — concretely, on AVX-512 the AoSoA layout pads the x-dimension; an
/// x-extent that is already a multiple of 8 has zero overhead ("order 8 is
/// a sweetspot"), while an extent of 9 pads to 16 and nearly doubles the
/// stored lines ("order 9 suffers from a particularly large padding
/// overhead", Sec. V-A).
#[inline]
pub fn padding_overhead(n: usize, w: SimdWidth) -> f64 {
    let p = pad_to_simd(n, w);
    (p - n) as f64 / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(SimdWidth::W2.doubles(), 2);
        assert_eq!(SimdWidth::W4.doubles(), 4);
        assert_eq!(SimdWidth::W8.doubles(), 8);
        assert_eq!(SimdWidth::W8.bits(), 512);
        assert_eq!(SimdWidth::W4.bits(), 256);
        assert_eq!(SimdWidth::W2.bits(), 128);
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
        // Order N in the paper means N+1 nodes... the paper indexes orders
        // 4..11 with N nodes per dimension required for N-th order; its
        // AVX-512 sweetspot statement maps to an x-extent of 8 (no padding)
        // vs 9 (pads to 16).
        assert_eq!(padding_overhead(8, SimdWidth::W8), 0.0);
        let o9 = padding_overhead(9, SimdWidth::W8);
        assert!(o9 > 0.4 && o9 < 0.5, "overhead {o9}");
    }

    #[test]
    fn host_width_is_valid() {
        let w = SimdWidth::host();
        assert!(matches!(w, SimdWidth::W2 | SimdWidth::W4 | SimdWidth::W8));
    }
}
