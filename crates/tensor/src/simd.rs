//! Portable SIMD abstraction and the one ISA decision of the workspace.
//!
//! One trait, [`SimdF64`], models "a register of `LANES` doubles" with the
//! operations the packed GEMM microkernel and the lane kernels (vectorised
//! user functions, Taylor axpy, face projection) need. It is implemented by
//! a single generic wrapper type, [`F64s`], parameterized on lane count and
//! on whether the target ISA fuses multiply-add:
//!
//! * [`F64s<4, false>`](F64s) — the scalar/portable fallback. `fma` is an
//!   unfused multiply-then-add, so it never emits a libm `fma` call on
//!   hosts without hardware FMA.
//! * [`F64s<4, true>`](F64s) — one AVX2 `ymm` register. `fma` lowers to
//!   `vfmadd` when instantiated inside an `avx2,fma` target-feature
//!   wrapper.
//! * [`F64s<8, true>`](F64s) — one AVX-512 `zmm` register (same mechanism
//!   with `avx512f`).
//!
//! The wrapper is a plain `[f64; N]` array rather than an architecture
//! intrinsic type: LLVM maps fixed-size array arithmetic inside a
//! `#[target_feature]` function onto full-width vector registers, which
//! keeps this module architecture-independent (and keeps the workspace's
//! minimum supported Rust version where it is) while the monomorphized
//! kernels still compile to packed FMA sequences.
//!
//! [`Isa`] is the one SIMD level of the workspace — the paper's
//! architecture switch: it sets the zero-padding of every tensor's leading
//! dimension ([`crate::padding`]), caps the GEMM tile and the lane kernels,
//! and [`Isa::detect`] is the only code that reads CPU features.
//! [`dispatch`] is the single door from an [`Isa`] value to code compiled
//! for it: a [`LaneKernel`] body written once over `S: SimdF64` runs
//! inside the `#[target_feature]` wrapper of the requested level, or on
//! the portable registers when the host (or the kernel's lane granule)
//! rules the level out. The GEMM tiles of `aderdg-gemm` follow the same
//! idiom with their own wrappers.

use std::sync::OnceLock;

/// A register of [`LANES`](SimdF64::LANES) doubles.
///
/// All operations are safe except the raw-pointer loads/stores; ISA
/// availability is the *enclosing* `#[target_feature]` wrapper's job, not
/// the vector type's (the portable instantiation has no requirement at
/// all).
pub trait SimdF64: Copy + Send + Sync + 'static {
    /// Number of doubles per register.
    const LANES: usize;

    /// All lanes zero.
    fn zero() -> Self;

    /// All lanes `x`.
    fn splat(x: f64) -> Self;

    /// Loads `LANES` consecutive doubles from `p` (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for `LANES` reads of `f64`.
    unsafe fn load(p: *const f64) -> Self;

    /// Stores the register to `LANES` consecutive doubles at `p`
    /// (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for `LANES` writes of `f64`.
    unsafe fn store(self, p: *mut f64);

    /// `self + a·b`, fused into hardware FMA when the instantiation says
    /// the ISA provides it (single rounding), plain multiply-then-add
    /// otherwise (two roundings). The two variants agree well within the
    /// `1e-13` equivalence budget of the DG kernels.
    fn fma(self, a: Self, b: Self) -> Self;

    /// Lanewise product.
    fn mul(self, o: Self) -> Self;

    /// Lanewise sum.
    fn add(self, o: Self) -> Self;

    /// Lanewise difference.
    fn sub(self, o: Self) -> Self;

    /// Lanewise quotient.
    fn div(self, o: Self) -> Self;

    /// Lanewise negation.
    fn neg(self) -> Self;

    /// Keeps lanes `0..k`, zeroes lanes `k..` by *selection* (an `inf` or
    /// `NaN` in a dropped lane becomes `0.0`) — the guard for reciprocals
    /// of zero padding lanes (paper Sec. V-C).
    fn keep_first(self, k: usize) -> Self;
}

/// The one wrapper type: `L` doubles, `FMA` telling whether `fma` may use
/// `f64::mul_add` (true only when every instantiation site guarantees
/// hardware FMA — otherwise LLVM would emit a libm call per lane).
#[derive(Debug, Clone, Copy)]
#[repr(transparent)]
pub struct F64s<const L: usize, const FMA: bool>(pub [f64; L]);

impl<const L: usize, const FMA: bool> F64s<L, FMA> {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut r = self.0;
        for i in 0..L {
            r[i] = f(r[i], o.0[i]);
        }
        Self(r)
    }
}

impl<const L: usize, const FMA: bool> SimdF64 for F64s<L, FMA> {
    const LANES: usize = L;

    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; L])
    }

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; L])
    }

    // SAFETY: contract documented on `SimdF64::load`.
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: caller guarantees `p` is valid for `L` reads; `[f64; L]`
        // has the same layout as `L` consecutive doubles and
        // `read_unaligned` drops the alignment requirement.
        Self(unsafe { p.cast::<[f64; L]>().read_unaligned() })
    }

    // SAFETY: contract documented on `SimdF64::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: caller guarantees `p` is valid for `L` writes.
        unsafe { p.cast::<[f64; L]>().write_unaligned(self.0) }
    }

    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        let mut r = self.0;
        if FMA {
            for i in 0..L {
                r[i] = a.0[i].mul_add(b.0[i], r[i]);
            }
        } else {
            for i in 0..L {
                r[i] += a.0[i] * b.0[i];
            }
        }
        Self(r)
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }

    #[inline(always)]
    fn neg(self) -> Self {
        let mut r = self.0;
        for x in &mut r {
            *x = -*x;
        }
        Self(r)
    }

    #[inline(always)]
    fn keep_first(self, k: usize) -> Self {
        // A bit mask per lane instead of a branch per lane: LLVM turns
        // the latter into a ladder of scalar compares on `k`.
        let mut r = self.0;
        for (i, x) in r.iter_mut().enumerate() {
            let keep = ((i < k) as u64).wrapping_neg();
            *x = f64::from_bits(x.to_bits() & keep);
        }
        Self(r)
    }
}

/// Portable 4-lane vector (no FMA contraction; safe on every host).
pub type PortableF64x4 = F64s<4, false>;

/// 4-lane vector for AVX2+FMA instantiations.
pub type FmaF64x4 = F64s<4, true>;

/// 8-lane vector for AVX-512 instantiations.
pub type FmaF64x8 = F64s<8, true>;

/// The SIMD level of a plan: the padding unit of every tensor's leading
/// dimension and the ISA its GEMM tiles and lane kernels execute at
/// (clamped to [`Isa::detect`]). Levels are ordered, and each implies
/// every narrower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// 128-bit registers, no explicit feature request: whatever the
    /// baseline target has (SSE2 on x86-64).
    Baseline,
    /// 256-bit AVX2 + FMA (the paper's "Haswell" configuration).
    Avx2,
    /// 512-bit AVX-512F/VL + FMA (the paper's "Skylake" configuration).
    Avx512,
}

impl Isa {
    /// Every level, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// Best ISA the host supports, probed once per process — the only
    /// code in the workspace that reads CPU features. The result is a
    /// true chain, `Avx512 ⇒ Avx2 ⇒ Baseline`: `Avx512` is reported only
    /// when AVX2 and FMA are present too, so every `#[target_feature]`
    /// wrapper of a level at or below `detect()` may run. Miri interprets
    /// portable Rust only, so it always reports [`Isa::Baseline`].
    pub fn detect() -> Self {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if !cfg!(miri)
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                {
                    return Isa::Avx512;
                }
                return Isa::Avx2;
            }
            Isa::Baseline
        })
    }

    /// Parses a `width` knob spelling: `sse`/`128`, `avx2`/`256`,
    /// `avx512`/`512`, or `host` (= [`Isa::detect`]).
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "sse" | "128" => Some(Isa::Baseline),
            "avx2" | "256" => Some(Isa::Avx2),
            "avx512" | "512" => Some(Isa::Avx512),
            "host" => Some(Isa::detect()),
            _ => None,
        }
    }

    /// The canonical `width` spelling (inverse of [`Isa::parse`]);
    /// checkpoints pin the padding they were saved with through it.
    pub fn as_str(&self) -> &'static str {
        match self {
            Isa::Baseline => "sse",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Register width in doubles — the unit the leading tensor dimension
    /// is padded to.
    pub const fn width_doubles(self) -> usize {
        match self {
            Isa::Baseline => 2,
            Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }

    /// Every level the host supports, narrowest first (the portable level
    /// is always included) — what the cross-ISA equivalence tests walk.
    pub fn supported() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detect())
    }
}

/// A loop body written once over the register shape `S` and run at a
/// runtime-chosen ISA level by [`dispatch`].
///
/// Implementations mark `run` `#[inline(always)]` (and every helper it
/// calls), so each ISA wrapper monomorphizes its own full-width copy —
/// a helper left to LLVM's inlining heuristics would be compiled for the
/// baseline target and called from the wide loop.
pub trait LaneKernel {
    /// Runs the body with `S`-shaped registers.
    fn run<S: SimdF64>(self);
}

/// Runs `kernel` at ISA level `isa` (clamped to what the host supports):
/// inside the `avx512f` wrapper on 8 lanes, the `avx2,fma` wrapper on 4
/// lanes, or on the portable registers. `granule` is the length unit the
/// kernel's lane loops step through (an x-line's `stride`, a padded row
/// length); a level whose lane count does not divide it falls to the next
/// narrower one, down to a single portable lane, so the body never needs
/// a remainder loop.
#[inline]
pub fn dispatch<K: LaneKernel>(isa: Isa, granule: usize, kernel: K) {
    #[cfg(target_arch = "x86_64")]
    {
        let isa = isa.min(Isa::detect());
        if isa == Isa::Avx512 && granule % 8 == 0 {
            // SAFETY: `isa` is clamped to `Isa::detect()`, which reports
            // `Avx512` only after probing AVX-512F/VL and FMA.
            return unsafe { run_avx512(kernel) };
        }
        if isa >= Isa::Avx2 && granule % 4 == 0 {
            // SAFETY: `isa` is clamped to `Isa::detect()`, which reports
            // `Avx2` or `Avx512` only after probing AVX2 and FMA (the
            // `Avx512 ⇒ Avx2` chain of `detect`).
            return unsafe { run_avx2(kernel) };
        }
    }
    let _ = isa;
    match granule % 4 {
        0 => kernel.run::<PortableF64x4>(),
        2 => kernel.run::<F64s<2, false>>(),
        _ => kernel.run::<F64s<1, false>>(),
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: LaneKernel>(kernel: K) {
    kernel.run::<FmaF64x4>()
}

/// # Safety
/// The CPU must support AVX-512F, AVX-512VL and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,fma")]
unsafe fn run_avx512<K: LaneKernel>(kernel: K) {
    kernel.run::<FmaF64x8>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: SimdF64>() {
        let src: Vec<f64> = (0..S::LANES).map(|i| i as f64 + 0.5).collect();
        let mut dst = vec![0.0; S::LANES];
        // SAFETY: both slices hold exactly `LANES` doubles.
        unsafe {
            let v = S::load(src.as_ptr());
            v.store(dst.as_mut_ptr());
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn load_store_roundtrip_all_widths() {
        roundtrip::<PortableF64x4>();
        roundtrip::<FmaF64x4>();
        roundtrip::<FmaF64x8>();
        roundtrip::<F64s<1, false>>();
    }

    #[test]
    fn fma_mul_add_agree_with_scalar() {
        let a = PortableF64x4::splat(3.0);
        let b = PortableF64x4::splat(0.5);
        let acc = PortableF64x4::splat(1.0);
        let r = acc.fma(a, b);
        assert_eq!(r.0, [2.5; 4]);
        assert_eq!(a.mul(b).0, [1.5; 4]);
        assert_eq!(a.add(b).0, [3.5; 4]);
        assert_eq!(a.sub(b).0, [2.5; 4]);
        assert_eq!(a.div(b).0, [6.0; 4]);
        assert_eq!(a.neg().0, [-3.0; 4]);
        assert_eq!(PortableF64x4::zero().0, [0.0; 4]);
    }

    #[test]
    fn fused_variant_matches_unfused_closely() {
        // Same inputs through both rounding modes: identical here because
        // the products are exact; the general bound is ~1 ulp per step.
        let x = FmaF64x4::splat(1.25);
        let y = FmaF64x4::splat(2.0);
        let r = FmaF64x4::splat(0.5).fma(x, y);
        assert_eq!(r.0, [3.0; 4]);
    }

    #[test]
    fn keep_first_selects_instead_of_multiplying() {
        let v = PortableF64x4::splat(1.0).div(F64s([2.0, 4.0, 0.0, 0.0]));
        assert_eq!(v.0[2], f64::INFINITY);
        assert_eq!(v.keep_first(2).0, [0.5, 0.25, 0.0, 0.0]);
        assert_eq!(v.keep_first(0).0, [0.0; 4]);
        assert!(F64s::<4, false>([f64::NAN; 4]).keep_first(9).0[3].is_nan());
    }

    #[test]
    fn isa_ordering_and_clamp() {
        assert!(Isa::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Isa::Avx512.min(Isa::Avx2), Isa::Avx2);
        assert_eq!(Isa::Baseline.min(Isa::Avx512), Isa::Baseline);
        assert_eq!(Isa::ALL.map(Isa::width_doubles), [2, 4, 8]);
        let levels: Vec<Isa> = Isa::supported().collect();
        assert_eq!(levels[0], Isa::Baseline);
        assert_eq!(*levels.last().unwrap(), Isa::detect());
    }

    /// `y[i] += c · x[i]`, recording the lane count it ran with.
    struct Axpy<'a> {
        c: f64,
        x: &'a [f64],
        y: &'a mut [f64],
        lanes: &'a mut usize,
    }

    impl LaneKernel for Axpy<'_> {
        #[inline(always)]
        fn run<S: SimdF64>(self) {
            *self.lanes = S::LANES;
            let c = S::splat(self.c);
            for (y, x) in self
                .y
                .chunks_exact_mut(S::LANES)
                .zip(self.x.chunks_exact(S::LANES))
            {
                // SAFETY: both chunks hold exactly `LANES` doubles.
                unsafe {
                    S::load(y.as_ptr())
                        .fma(c, S::load(x.as_ptr()))
                        .store(y.as_mut_ptr())
                }
            }
        }
    }

    #[test]
    fn dispatch_picks_lanes_by_isa_and_granule() {
        for isa in Isa::supported() {
            for len in [1, 2, 4, 6, 8, 16, 24] {
                let x: Vec<f64> = (0..len).map(|i| i as f64).collect();
                let mut y = vec![1.0; len];
                let mut lanes = 0;
                dispatch(
                    isa,
                    len,
                    Axpy {
                        c: 2.0,
                        x: &x,
                        y: &mut y,
                        lanes: &mut lanes,
                    },
                );
                let want = match (isa, len % 8, len % 4, len % 2) {
                    (Isa::Avx512, 0, ..) => 8,
                    (_, _, 0, _) => 4,
                    (_, _, _, 0) => 2,
                    _ => 1,
                };
                assert_eq!(lanes, want, "{isa:?} len={len}");
                for (i, v) in y.iter().enumerate() {
                    assert_eq!(*v, 1.0 + 2.0 * i as f64);
                }
            }
        }
    }
}
