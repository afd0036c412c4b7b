//! GEMM problem descriptors.
//!
//! A [`GemmSpec`] describes one small dense matrix multiplication
//! `C ← α·A·B + β·C` in row-major storage with explicit leading dimensions
//! (row strides). The leading dimensions are how tensor matrix slices are
//! addressed without copies: a slice along a slow tensor dimension simply
//! sets `ld` to the slice stride (paper Fig. 3), and zero-padded layouts set
//! `ld` to the padded extent.

/// Descriptor of `C (m×n) ← alpha · A (m×k) · B (k×n) + beta · C`,
/// row-major with explicit row strides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmSpec {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Columns of `A` / rows of `B`.
    pub k: usize,
    /// Row stride of `A` (≥ k).
    pub lda: usize,
    /// Row stride of `B` (≥ n).
    pub ldb: usize,
    /// Row stride of `C` (≥ n).
    pub ldc: usize,
    /// Scale on the product.
    pub alpha: f64,
    /// Scale on the existing `C` contents (0.0 = overwrite, 1.0 = accumulate).
    pub beta: f64,
}

impl GemmSpec {
    /// Dense spec with tight leading dimensions, `alpha = 1`, `beta = 0`.
    pub fn dense(m: usize, n: usize, k: usize) -> Self {
        Self {
            m,
            n,
            k,
            lda: k,
            ldb: n,
            ldc: n,
            alpha: 1.0,
            beta: 0.0,
        }
    }

    /// Sets the leading dimensions (builder style).
    pub fn with_ld(mut self, lda: usize, ldb: usize, ldc: usize) -> Self {
        self.lda = lda;
        self.ldb = ldb;
        self.ldc = ldc;
        self
    }

    /// Sets `alpha` and `beta` (builder style).
    pub fn with_scale(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Accumulating variant (`beta = 1`).
    pub fn accumulate(mut self) -> Self {
        self.beta = 1.0;
        self
    }

    /// Validates the spec against buffer lengths; returns the minimum
    /// required lengths `(a, b, c)`.
    pub fn required_lens(&self) -> (usize, usize, usize) {
        let need = |rows: usize, ld: usize, cols: usize| {
            if rows == 0 || cols == 0 {
                0
            } else {
                (rows - 1) * ld + cols
            }
        };
        (
            need(self.m, self.lda, self.k),
            need(self.k, self.ldb, self.n),
            need(self.m, self.ldc, self.n),
        )
    }

    /// Asserts buffers are large enough and strides are consistent.
    pub fn check(&self, a: &[f64], b: &[f64], c: &[f64]) {
        assert!(self.lda >= self.k || self.m <= 1, "lda < k");
        assert!(self.ldb >= self.n || self.k <= 1, "ldb < n");
        assert!(self.ldc >= self.n || self.m <= 1, "ldc < n");
        let (ra, rb, rc) = self.required_lens();
        assert!(a.len() >= ra, "A too short: {} < {ra}", a.len());
        assert!(b.len() >= rb, "B too short: {} < {rb}", b.len());
        assert!(c.len() >= rc, "C too short: {} < {rc}", c.len());
    }

    /// Useful floating-point operations (multiply + add counted separately),
    /// excluding the `beta` pass: `2·m·n·k`.
    #[inline]
    pub fn flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) * (self.k as u64)
    }
}

/// Strided batch descriptor for
/// [`run_batched`](crate::backend::GemmBackend::run_batched): `count`
/// multiplications sharing one [`GemmSpec`], with operand `i` starting at
/// `i * stride_{a,b,c}` of the respective buffer.
///
/// A stride of `0` means the operand is **shared** across the batch —
/// the cell-block case of the paper's narrative, where one tiny operator
/// matrix (the 1-D differentiation matrix `D`) serves the stacked DOFs
/// of many cells and is loaded once instead of once per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBatch {
    /// Number of multiplications in the batch.
    pub count: usize,
    /// Doubles between consecutive `A` operands (`0` = shared `A`).
    pub stride_a: usize,
    /// Doubles between consecutive `B` operands (`0` = shared `B`).
    pub stride_b: usize,
    /// Doubles between consecutive `C` operands.
    pub stride_c: usize,
}

impl GemmBatch {
    /// The one-item batch: a single call.
    pub const ONE: Self = Self {
        count: 1,
        stride_a: 0,
        stride_b: 0,
        stride_c: 0,
    };

    /// General strided batch.
    pub fn new(count: usize, stride_a: usize, stride_b: usize, stride_c: usize) -> Self {
        Self {
            count,
            stride_a,
            stride_b,
            stride_c,
        }
    }

    /// Batch sharing the `A` operand (e.g. `C_i ← D · B_i`: one operator,
    /// many data panels).
    pub fn shared_a(count: usize, stride_b: usize, stride_c: usize) -> Self {
        Self::new(count, 0, stride_b, stride_c)
    }

    /// Batch sharing the `B` operand (e.g. `C_i ← A_i · Dᵀ`).
    pub fn shared_b(count: usize, stride_a: usize, stride_c: usize) -> Self {
        Self::new(count, stride_a, 0, stride_c)
    }

    /// Minimum buffer lengths `(a, b, c)` the whole batch addresses.
    pub fn required_lens(&self, spec: &GemmSpec) -> (usize, usize, usize) {
        let (ra, rb, rc) = spec.required_lens();
        if self.count == 0 {
            return (0, 0, 0);
        }
        let last = self.count - 1;
        (
            last * self.stride_a + ra,
            last * self.stride_b + rb,
            last * self.stride_c + rc,
        )
    }

    /// Asserts that every batch item stays in bounds and that strided
    /// `C` operands do not alias each other: either each item's `C`
    /// extent ends before the next begins, or the items interleave row
    /// by row without touching — each row's `n` columns fit the stride,
    /// and the last item's row still ends within the first item's row
    /// (`(count − 1)·stride_c + n ≤ ldc`).
    pub fn check(&self, spec: &GemmSpec, a: &[f64], b: &[f64], c: &[f64]) {
        let extent = spec.required_lens().2;
        let apart = self.stride_c >= extent;
        let interleaved = spec.n <= self.stride_c
            && self.count.saturating_sub(1) * self.stride_c + spec.n <= spec.ldc;
        assert!(
            self.count <= 1 || apart || interleaved,
            "C batch stride {} overlaps items (need >= {extent})",
            self.stride_c,
        );
        let (ra, rb, rc) = self.required_lens(spec);
        assert!(a.len() >= ra, "batched A too short: {} < {ra}", a.len());
        assert!(b.len() >= rb, "batched B too short: {} < {rb}", b.len());
        assert!(c.len() >= rc, "batched C too short: {} < {rc}", c.len());
    }

    /// If the batch is a row-stacked shared-`B` batch (each `A_i` / `C_i`
    /// directly below its predecessor), the whole batch is equivalent to
    /// **one** tall multiplication with `count·m` rows — the genuinely
    /// blocked execution path: a single kernel invocation amortizes the
    /// shared operand over the entire cell block and register tiles run
    /// across cell boundaries.
    pub fn fuse_rows(&self, spec: &GemmSpec) -> Option<GemmSpec> {
        (self.count > 0
            && self.stride_b == 0
            && self.stride_a == spec.m * spec.lda
            && self.stride_c == spec.m * spec.ldc)
            .then(|| GemmSpec {
                m: spec.m * self.count,
                ..*spec
            })
    }

    /// Useful flops of the whole batch.
    pub fn flops(&self, spec: &GemmSpec) -> u64 {
        self.count as u64 * spec.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_defaults() {
        let s = GemmSpec::dense(3, 4, 5);
        assert_eq!((s.lda, s.ldb, s.ldc), (5, 4, 4));
        assert_eq!((s.alpha, s.beta), (1.0, 0.0));
        assert_eq!(s.flops(), 120);
    }

    #[test]
    fn required_lens_account_for_strides() {
        let s = GemmSpec::dense(3, 4, 2).with_ld(10, 20, 30);
        let (ra, rb, rc) = s.required_lens();
        assert_eq!(ra, 2 * 10 + 2);
        assert_eq!(rb, 20 + 4);
        assert_eq!(rc, 2 * 30 + 4);
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn check_rejects_short_a() {
        let s = GemmSpec::dense(2, 2, 2);
        s.check(&[0.0; 3], &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "lda < k")]
    fn check_rejects_bad_stride() {
        let s = GemmSpec::dense(2, 2, 4).with_ld(2, 2, 2);
        s.check(&[0.0; 16], &[0.0; 16], &[0.0; 16]);
    }
}
