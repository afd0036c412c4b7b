//! Peak-performance calibration and "available performance" reporting.
//!
//! The paper normalizes kernel GFlop/s by the hardware peak of the
//! SuperMUC-NG Skylake core (60.8 DP GFlop/s at the AVX-512 base
//! frequency). We do not know the host's frequency or FMA port count, so
//! the denominator is *measured*: a register-resident multiply-add
//! microkernel that the auto-vectorizer turns into packed FMAs gives the
//! achievable per-core peak. Ratios against this calibrated peak preserve
//! the figures' shape.

use aderdg_tensor::Isa;
use std::time::Instant;

/// Number of independent accumulator chains (enough to hide FMA latency
/// on any recent core: 8 chains × 8 lanes = 64 doubles in flight).
const CHAINS: usize = 64;

/// The measurement body. `#[inline(always)]` so each `target_feature`
/// wrapper below compiles its own fully-vectorized copy — without an FMA
/// feature in scope, `mul_add` lowers to a libm call and the "peak" would
/// be off by orders of magnitude.
#[inline(always)]
fn fma_burn_body(iters: u64) -> f64 {
    let mut acc = [1.0f64; CHAINS];
    let a = std::hint::black_box(1.000000321f64);
    let b = std::hint::black_box(0.999999523f64);
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

/// Baseline build of the measurement loop.
#[inline(never)]
fn fma_burn_baseline(iters: u64) -> f64 {
    fma_burn_body(iters)
}

/// AVX2+FMA build.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are supported.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_burn_avx2(iters: u64) -> f64 {
    fma_burn_body(iters)
}

/// AVX-512 build.
///
/// # Safety
/// Caller must ensure AVX-512F and FMA are supported.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn fma_burn_avx512(iters: u64) -> f64 {
    fma_burn_body(iters)
}

/// Runs `iters` rounds of 64 independent multiply-adds at the host's
/// [`Isa::detect`] level — the level every plan's GEMM tiles and lane
/// kernels run at — and returns the accumulated sum (so the optimizer
/// cannot discard the loop).
pub fn fma_burn(iters: u64) -> f64 {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::detect` reports `Avx512` only after probing
        // AVX-512F and FMA (among others).
        Isa::Avx512 => unsafe { fma_burn_avx512(iters) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::detect` reports `Avx2` only after probing AVX2 and
        // FMA.
        Isa::Avx2 => unsafe { fma_burn_avx2(iters) },
        _ => fma_burn_baseline(iters),
    }
}

/// Measures the host's achievable double-precision peak in GFlop/s by
/// timing [`fma_burn`] for at least `min_millis` milliseconds.
///
/// Call from a release build; a debug build under-reports drastically.
pub fn measure_peak_gflops(min_millis: u64) -> f64 {
    // Warm up (frequency scaling, page faults).
    std::hint::black_box(fma_burn(100_000));
    let mut iters: u64 = 1_000_000;
    loop {
        let t0 = Instant::now();
        std::hint::black_box(fma_burn(iters));
        let dt = t0.elapsed();
        if dt.as_millis() as u64 >= min_millis {
            let flops = iters as f64 * CHAINS as f64 * 2.0;
            return flops / dt.as_secs_f64() / 1e9;
        }
        iters *= 4;
    }
}

/// A timed kernel measurement normalized against a calibrated peak.
#[derive(Debug, Clone, Copy)]
pub struct PerfMeasurement {
    /// Useful flops executed.
    pub flops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Calibrated peak GFlop/s of the host.
    pub peak_gflops: f64,
}

impl PerfMeasurement {
    /// Achieved GFlop/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.flops as f64 / self.seconds / 1e9
        }
    }

    /// Fraction of the available performance reached — the y-axis of the
    /// upper panels of Figs. 4, 6 and 10.
    pub fn available_fraction(&self) -> f64 {
        if self.peak_gflops == 0.0 {
            0.0
        } else {
            self.gflops() / self.peak_gflops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_burn_returns_finite() {
        let v = fma_burn(1000);
        assert!(v.is_finite());
        assert!(v != 0.0);
    }

    #[test]
    fn measurement_arithmetic() {
        let m = PerfMeasurement {
            flops: 2_000_000_000,
            seconds: 1.0,
            peak_gflops: 20.0,
        };
        assert!((m.gflops() - 2.0).abs() < 1e-12);
        assert!((m.available_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let m = PerfMeasurement {
            flops: 100,
            seconds: 0.0,
            peak_gflops: 0.0,
        };
        assert_eq!(m.gflops(), 0.0);
        assert_eq!(m.available_fraction(), 0.0);
    }

    #[test]
    #[ignore = "timing-sensitive; run explicitly with --ignored"]
    fn peak_measurement_is_positive() {
        let p = measure_peak_gflops(50);
        assert!(p > 0.1, "peak={p}");
    }
}
