//! The lane driver of the vectorised user functions (paper Fig. 8) — the
//! one module of this crate allowed to contain `unsafe`.
//!
//! A PDE writes its SoA user function once, as a [`LineFn`]: a safe,
//! register-to-register body over `S: SimdF64` that reads quantity rows
//! through [`Rows`] and returns the evolved rows of the result. [`run_line`]
//! runs that body over one x-line at the requested [`Isa`] level through
//! [`aderdg_tensor::simd::dispatch`] — one `#[target_feature]` wrapper
//! call per x-line, lane group by lane group — stores every result row
//! exactly once, and writes the parameter rows — when the output chunk
//! includes them — as zeros ("fluxes of parameters are zero"), so the
//! output needs no prior clearing.

use aderdg_tensor::simd::{dispatch, Isa, LaneKernel, SimdF64};
use std::marker::PhantomData;

/// One lane group (`S::LANES` consecutive nodes of an x-line) of an SoA
/// chunk holding `M` quantity rows.
pub(crate) struct Rows<'a, S, const M: usize> {
    /// First lane of row 0; every row offset `s · stride`, `s < M`, is
    /// valid for `S::LANES` reads.
    base: *const f64,
    stride: usize,
    _chunk: PhantomData<(&'a [f64], S)>,
}

impl<'a, S: SimdF64, const M: usize> Rows<'a, S, M> {
    /// The lane group starting at lane `i` of `chunk`.
    ///
    /// # Safety
    /// `chunk` must hold `M · stride` doubles and `i + S::LANES <= stride`.
    #[inline(always)]
    unsafe fn at(chunk: &'a [f64], i: usize, stride: usize) -> Self {
        Self {
            // SAFETY: `i < stride <= chunk.len()` by the caller's contract.
            base: unsafe { chunk.as_ptr().add(i) },
            stride,
            _chunk: PhantomData,
        }
    }

    /// The lanes of quantity row `s`.
    ///
    /// # Panics
    /// If `s >= M` (folded away for the constant row indices the PDEs use).
    #[inline(always)]
    pub(crate) fn get(&self, s: usize) -> S {
        assert!(s < M, "quantity row out of range");
        // SAFETY: `Rows::at`'s contract makes `base` valid for `S::LANES`
        // reads at every row offset `s · stride` with `s < M`, checked
        // above.
        unsafe { S::load(self.base.add(s * self.stride)) }
    }
}

/// `1/x` on the first `valid` lanes of a group, `0` on the padding lanes:
/// densities and moduli are zero there (paper Sec. V-C's division-by-zero
/// caveat), and the guard *selects* the infinity away, where a product
/// with the zero state would leave a NaN.
#[inline(always)]
pub(crate) fn recip<S: SimdF64>(x: S, valid: usize) -> S {
    S::splat(1.0).div(x).keep_first(valid)
}

/// A vectorised user function on `M` stored quantities of which the first
/// `V` evolve: given one lane group of the state `q` (and, for a
/// non-conservative product, of the gradient `grad` — flux functions are
/// handed `q` again and ignore it), returns the `V` evolved result rows.
/// `valid` is the number of leading non-padding lanes of the group (may
/// exceed the lane count); padding lanes of `q` and `grad` are zero and
/// must map to finite values — take reciprocals with [`recip`].
///
/// Implementations mark `eval` `#[inline(always)]`.
pub(crate) trait LineFn<const M: usize, const V: usize> {
    fn eval<S: SimdF64>(&self, q: &Rows<'_, S, M>, grad: &Rows<'_, S, M>, valid: usize) -> [S; V];
}

/// One x-line of work for [`dispatch`].
struct Line<'a, F, const M: usize, const V: usize> {
    f: &'a F,
    q: &'a [f64],
    grad: &'a [f64],
    out: &'a mut [f64],
    len: usize,
    stride: usize,
}

impl<F: LineFn<M, V>, const M: usize, const V: usize> LaneKernel for Line<'_, F, M, V> {
    #[inline(always)]
    fn run<S: SimdF64>(self) {
        let Line {
            f,
            q,
            grad,
            out,
            len,
            stride,
        } = self;
        debug_assert_eq!(stride % S::LANES, 0, "dispatch granule contract");
        let need = M * stride;
        assert!(1 <= M && V <= M && q.len() >= need && grad.len() >= need);
        // `out` holds all rows or stops after the evolved ones (no
        // division on this path: it runs once per x-line).
        assert!(out.len() >= V * stride, "output chunk misses evolved rows");
        let out_rows = if out.len() >= need { M } else { V };
        // (An x-line is one or two lane groups. Over many groups LLVM may
        // re-vectorize a very small body across them — see `scale`.)
        let mut i = 0;
        while i + S::LANES <= stride {
            // SAFETY: both chunks were checked to hold `M · stride`
            // doubles and the loop condition bounds `i + S::LANES`.
            let (ql, gl) = unsafe { (Rows::at(q, i, stride), Rows::at(grad, i, stride)) };
            let vals: [S; V] = f.eval(&ql, &gl, len.saturating_sub(i));
            // Two plain loops (not one over a chained iterator): LLVM
            // unrolls the first into stores straight from registers.
            for s in 0..V {
                // SAFETY: `s < V` and `i + S::LANES <= stride`, so the
                // `S::LANES` doubles at `s · stride + i` lie inside the
                // `V · stride` doubles `out` was checked to hold.
                unsafe { vals[s].store(out.as_mut_ptr().add(s * stride + i)) };
            }
            for s in V..out_rows {
                // SAFETY: as above; `out_rows > V` only if `out` was
                // checked to hold all `M · stride` doubles.
                unsafe { S::zero().store(out.as_mut_ptr().add(s * stride + i)) };
            }
            i += S::LANES;
        }
    }
}

/// Runs `f` over one SoA x-line chunk (`M` rows of `stride` doubles, lanes
/// `0..len` valid) at ISA level `isa`, writing all `M` rows of `out`, or
/// only the `V` evolved rows when `out` is shorter than `M · stride`.
///
/// # Panics
/// If an input chunk is shorter than `M · stride` or `out` shorter than
/// `V · stride`.
#[inline]
pub(crate) fn run_line<F: LineFn<M, V>, const M: usize, const V: usize>(
    isa: Isa,
    f: &F,
    q: &[f64],
    grad: &[f64],
    out: &mut [f64],
    len: usize,
    stride: usize,
) {
    dispatch(
        isa,
        stride,
        Line {
            f,
            q,
            grad,
            out,
            len,
            stride,
        },
    );
}

/// `out[i] ← a · src[i]` at ISA level `isa` — the whole user function of
/// the constant-coefficient advection systems, whose chunk is one
/// uniform run of doubles.
pub(crate) fn scale(isa: Isa, a: f64, src: &[f64], out: &mut [f64]) {
    /// A plain element loop, vectorized by the compiler at the wrapper's
    /// ISA level (`S` only selects it): over explicit `S` lane groups LLVM
    /// re-vectorizes so simple a body *across* groups with gather/scatter.
    struct Scale<'a>(f64, &'a [f64], &'a mut [f64]);

    impl LaneKernel for Scale<'_> {
        #[inline(always)]
        fn run<S: SimdF64>(self) {
            let Scale(a, src, out) = self;
            for (o, x) in out.iter_mut().zip(src) {
                *o = a * x;
            }
        }
    }

    assert_eq!(src.len(), out.len(), "chunk length mismatch");
    dispatch(isa, out.len(), Scale(a, src, out));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// out0 = q0 / q2 (guarded), out1 = q1 + grad0; one parameter row.
    struct Toy;

    impl LineFn<3, 2> for Toy {
        #[inline(always)]
        fn eval<S: SimdF64>(&self, q: &Rows<'_, S, 3>, g: &Rows<'_, S, 3>, valid: usize) -> [S; 2] {
            let inv = recip(q.get(2), valid);
            [q.get(0).mul(inv), q.get(1).add(g.get(0))]
        }
    }

    #[test]
    fn every_row_is_written_once_at_every_level() {
        for isa in Isa::supported() {
            for stride in [1usize, 2, 4, 6, 8, 16] {
                for len in [0, 1, stride.saturating_sub(1), stride] {
                    let mut q = vec![0.0; 3 * stride];
                    let mut g = vec![0.0; 3 * stride];
                    for i in 0..len {
                        q[i] = 1.0 + i as f64;
                        q[stride + i] = -(i as f64);
                        q[2 * stride + i] = 2.0;
                        g[i] = 0.25;
                    }
                    let mut out = vec![f64::NAN; 3 * stride];
                    run_line(isa, &Toy, &q, &g, &mut out, len, stride);
                    for i in 0..stride {
                        let (a, b) = if i < len {
                            ((1.0 + i as f64) / 2.0, 0.25 - i as f64)
                        } else {
                            (0.0, 0.0)
                        };
                        assert_eq!(out[i], a, "{isa:?} stride={stride} len={len} i={i}");
                        assert_eq!(out[stride + i], b);
                        assert_eq!(out[2 * stride + i], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn output_may_stop_after_the_evolved_rows() {
        let q = [1.0, 2.0, 3.0, 4.0, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0, 2.0, 2.0];
        let mut full = [f64::NAN; 12];
        run_line(Isa::detect(), &Toy, &q, &q, &mut full, 4, 4);
        // Two evolved rows plus a sentinel the driver must not touch.
        let mut head = [f64::NAN; 9];
        run_line(Isa::detect(), &Toy, &q, &q, &mut head[..8], 4, 4);
        assert_eq!(head[..8], full[..8]);
        assert!(head[8].is_nan());
    }

    #[test]
    #[should_panic]
    fn short_chunk_is_rejected() {
        let q = vec![0.0; 3 * 4];
        let mut out = vec![0.0; 2 * 4 - 1];
        run_line(Isa::Baseline, &Toy, &q, &q, &mut out, 4, 4);
    }
}
