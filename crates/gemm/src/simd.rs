//! Portable SIMD abstraction for the packed register-tiled kernels.
//!
//! One trait, [`SimdF64`], models "a register of `LANES` doubles" with the
//! five operations the microkernel inner loop needs (splat, load, store,
//! multiply, fused multiply-add). It is implemented by a single generic
//! wrapper type, [`F64s`], parameterized on lane count and on whether the
//! target ISA fuses multiply-add:
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
//! keeps this module architecture-independent (and keeps the crate's
//! minimum supported Rust version where it is) while the monomorphized
//! kernels still compile to packed FMA sequences. The trait only pins
//! down the register shape so the tiled driver ([`crate::micro`]) can be
//! written once.

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
}

/// The one wrapper type: `L` doubles, `FMA` telling whether `fma` may use
/// `f64::mul_add` (true only when every instantiation site guarantees
/// hardware FMA — otherwise LLVM would emit a libm call per lane).
#[derive(Debug, Clone, Copy)]
#[repr(transparent)]
pub struct F64s<const L: usize, const FMA: bool>(pub [f64; L]);

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
        let mut r = self.0;
        for i in 0..L {
            r[i] *= o.0[i];
        }
        Self(r)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for i in 0..L {
            r[i] += o.0[i];
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
}
