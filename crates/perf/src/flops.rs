//! Floating-point operation counting and SIMD pack classification.
//!
//! Reproduces the measurement behind the paper's Fig. 9: the distribution
//! of FLOPs over the packing width used to execute them (scalar, 128-, 256-
//! or 512-bit). The original uses VTune hardware counters; here each kernel
//! reports its counts analytically from its own loop structure — the pack
//! width of a vectorized loop is known exactly from the plan, remainder
//! iterations are scalar, and pointwise user functions are scalar.

use aderdg_tensor::Isa;

/// FLOP counts split by the SIMD pack width that executed them.
///
/// Counts are *flops*, not instructions: one 512-bit FMA on 8 doubles
/// contributes 16 to [`PackCounts::p512`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackCounts {
    /// Flops executed by scalar instructions.
    pub scalar: u64,
    /// Flops executed in 128-bit packs (2 doubles).
    pub p128: u64,
    /// Flops executed in 256-bit packs (4 doubles).
    pub p256: u64,
    /// Flops executed in 512-bit packs (8 doubles).
    pub p512: u64,
}

impl PackCounts {
    /// All-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total flops.
    pub fn total(&self) -> u64 {
        self.scalar + self.p128 + self.p256 + self.p512
    }

    /// Adds `flops` to the bucket of `level`'s register width (`None` =
    /// scalar).
    pub fn add(&mut self, level: Option<Isa>, flops: u64) {
        match level {
            None => self.scalar += flops,
            Some(Isa::Baseline) => self.p128 += flops,
            Some(Isa::Avx2) => self.p256 += flops,
            Some(Isa::Avx512) => self.p512 += flops,
        }
    }

    /// Element-wise sum.
    pub fn merge(&self, other: &PackCounts) -> PackCounts {
        PackCounts {
            scalar: self.scalar + other.scalar,
            p128: self.p128 + other.p128,
            p256: self.p256 + other.p256,
            p512: self.p512 + other.p512,
        }
    }

    /// Scales every bucket (e.g. per-cell counts × number of cells).
    pub fn scale(&self, factor: u64) -> PackCounts {
        PackCounts {
            scalar: self.scalar * factor,
            p128: self.p128 * factor,
            p256: self.p256 * factor,
            p512: self.p512 * factor,
        }
    }

    /// Fractions `[scalar, 128, 256, 512]` of the total (zeros if empty).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.scalar as f64 / t,
            self.p128 as f64 / t,
            self.p256 as f64 / t,
            self.p512 as f64 / t,
        ]
    }

    /// Fraction of flops executed by scalar instructions — the headline
    /// number of the paper's Sec. VI-A (≈10 % for LoG/SplitCK, 2–4 % for
    /// AoSoA SplitCK).
    pub fn scalar_fraction(&self) -> f64 {
        self.fractions()[0]
    }
}

/// Classifies a vectorizable loop: `trip` iterations, `flops_per_iter`
/// flops each, vectorized at `max` with compiler-style cascading
/// remainders (512 → 256 → 128 → scalar, mirroring the auto-vectorizer
/// behaviour the paper observes in Fig. 9).
pub fn classify_loop(trip: usize, flops_per_iter: u64, max: Isa) -> PackCounts {
    let mut counts = PackCounts::new();
    let mut rem = trip;
    for level in Isa::ALL.into_iter().rev().filter(|&l| l <= max) {
        let lanes = level.width_doubles();
        let packs = rem / lanes;
        counts.add(Some(level), (packs * lanes) as u64 * flops_per_iter);
        rem %= lanes;
    }
    counts.add(None, rem as u64 * flops_per_iter);
    counts
}

/// Classifies a loop whose trip count is already padded to a multiple of
/// the vector width — every flop (including the padding flops the paper
/// says "come for free") lands in the `max` bucket.
pub fn classify_padded_loop(padded_trip: usize, flops_per_iter: u64, max: Isa) -> PackCounts {
    debug_assert_eq!(padded_trip % max.width_doubles(), 0);
    let mut counts = PackCounts::new();
    counts.add(Some(max), padded_trip as u64 * flops_per_iter);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_classification() {
        // 21 iterations at AVX-512: 2×8 in 512-bit, 1×4 in 256-bit,
        // 0 in 128-bit, 1 scalar.
        let c = classify_loop(21, 2, Isa::Avx512);
        assert_eq!(c.p512, 32);
        assert_eq!(c.p256, 8);
        assert_eq!(c.p128, 0);
        assert_eq!(c.scalar, 2);
        assert_eq!(c.total(), 42);
    }

    #[test]
    fn avx2_cap_never_uses_512() {
        let c = classify_loop(21, 1, Isa::Avx2);
        assert_eq!(c.p512, 0);
        assert_eq!(c.p256, 20);
        assert_eq!(c.p128, 0);
        assert_eq!(c.scalar, 1);
    }

    #[test]
    fn padded_loop_fully_packed() {
        let c = classify_padded_loop(24, 3, Isa::Avx512);
        assert_eq!(c.p512, 72);
        assert_eq!(c.total(), 72);
        assert_eq!(c.scalar_fraction(), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = classify_loop(37, 5, Isa::Avx512);
        let f = c.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let a = classify_loop(8, 1, Isa::Avx512);
        let b = classify_loop(3, 1, Isa::Avx512);
        let m = a.merge(&b);
        assert_eq!(m.total(), 11);
        assert_eq!(m.scale(4).total(), 44);
    }

    #[test]
    fn empty_counts() {
        let c = PackCounts::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.fractions(), [0.0; 4]);
    }
}
