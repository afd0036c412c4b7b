//! GEMM plans: the scalar reference ([`gemm_naive`]), the ISA ladder
//! ([`Isa`], shared with the lane kernels) and the planned multiplication
//! ([`Gemm`]) — a spec bound to the kernel chosen for the host at plan
//! time, the same role LIBXSMM's runtime code generation plays for the
//! paper.

use crate::spec::{GemmBatch, GemmSpec};

/// Reference triple-loop implementation. Used as the correctness oracle in
/// tests and as the "generic kernel without LIBXSMM" fallback of the
/// paper's `matmul` template macro.
pub fn gemm_naive(spec: &GemmSpec, a: &[f64], b: &[f64], c: &mut [f64]) {
    spec.check(a, b, c);
    for i in 0..spec.m {
        for j in 0..spec.n {
            let mut acc = 0.0;
            for l in 0..spec.k {
                acc += a[i * spec.lda + l] * b[l * spec.ldb + j];
            }
            let cj = &mut c[i * spec.ldc + j];
            *cj = spec.alpha * acc + spec.beta * *cj;
        }
    }
}

pub use aderdg_tensor::simd::Isa;

/// A planned GEMM: spec plus the kernel chosen for the host at plan time.
///
/// This is the analogue of a generated-and-dispatched LIBXSMM kernel: all
/// size/stride and ISA decisions happen once, through
/// [`backend_for`](crate::backend::backend_for); `execute` is the hot
/// call. Construction verifies the host supports the kernel, which is
/// what makes the `execute*` methods safe.
#[derive(Debug, Clone)]
pub struct Gemm {
    spec: GemmSpec,
    backend: &'static dyn crate::backend::GemmBackend,
    packed_a: Option<std::sync::Arc<crate::micro::PackedPanels>>,
    packed_b: Option<std::sync::Arc<crate::micro::PackedPanels>>,
}

impl Gemm {
    /// Plans `spec` with the best backend the host supports.
    pub fn new(spec: GemmSpec) -> Self {
        Self::with_isa(spec, Isa::detect())
    }

    /// Plans `spec` with an explicit ISA cap (the cap is intersected with
    /// what the host actually supports).
    pub fn with_isa(spec: GemmSpec, isa: Isa) -> Self {
        Self::with_backend(spec, crate::backend::backend_for(isa.min(Isa::detect())))
    }

    /// Plans `spec` on an explicit kernel.
    ///
    /// # Panics
    /// If the host does not support `backend`.
    pub fn with_backend(spec: GemmSpec, backend: &'static dyn crate::backend::GemmBackend) -> Self {
        assert!(
            backend.isa() <= Isa::detect(),
            "GEMM kernel {} is not supported on this host",
            backend.name()
        );
        Self {
            spec,
            backend,
            packed_a: None,
            packed_b: None,
        }
    }

    /// Caches the left operand in the kernel's packed-panel layout. Every
    /// later `execute*` call **must** pass the same logical `A` it would
    /// pass without caching — the raw slice stays the source of truth for
    /// batch items the cache does not cover.
    ///
    /// This is the plan-time amortization step of the paper's kernel
    /// story: the DG operator matrices are multiplied by every cell block
    /// of every step, so their panels are packed once per plan.
    pub fn with_packed_a(mut self, a: &[f64]) -> Self {
        self.packed_a = Some(std::sync::Arc::new(self.backend.pack_a(&self.spec, a)));
        self
    }

    /// Caches the right operand in the kernel's packed-panel layout (see
    /// [`with_packed_a`](Self::with_packed_a)).
    pub fn with_packed_b(mut self, b: &[f64]) -> Self {
        self.packed_b = Some(std::sync::Arc::new(self.backend.pack_b(&self.spec, b)));
        self
    }

    /// The plan-cached packed operands, if any.
    fn packed(&self) -> crate::micro::PackedOperands<'_> {
        crate::micro::PackedOperands {
            a: self.packed_a.as_deref(),
            b: self.packed_b.as_deref(),
        }
    }

    /// Debug guard: cached panels must describe the operands actually
    /// passed (spot-checks the first packed element).
    #[cfg(debug_assertions)]
    fn debug_check_packed(&self, a: &[f64], b: &[f64]) {
        if self.spec.k == 0 {
            return;
        }
        if let Some(p) = &self.packed_a {
            if self.spec.m > 0 {
                debug_assert_eq!(
                    p.panel(0)[0],
                    a[0],
                    "packed A panels out of sync with the raw operand"
                );
            }
        }
        if let Some(p) = &self.packed_b {
            if self.spec.n > 0 {
                debug_assert_eq!(
                    p.panel(0)[0],
                    b[0],
                    "packed B panels out of sync with the raw operand"
                );
            }
        }
    }

    /// The descriptor this plan executes.
    pub fn spec(&self) -> &GemmSpec {
        &self.spec
    }

    /// The kernel the plan dispatches to.
    pub fn backend(&self) -> &'static dyn crate::backend::GemmBackend {
        self.backend
    }

    /// The ISA level the plan dispatches to.
    pub fn isa(&self) -> Isa {
        self.backend.isa()
    }

    /// Runs the planned multiplication on whole buffers, reading
    /// plan-cached packed panels where present.
    #[inline]
    pub fn execute(&self, a: &[f64], b: &[f64], c: &mut [f64]) {
        #[cfg(debug_assertions)]
        self.debug_check_packed(a, b);
        // SAFETY: `with_backend` verified the host supports the kernel.
        unsafe { self.backend.execute(&self.spec, a, b, c, self.packed()) };
    }

    /// Runs the planned multiplication on tensor slices given by offsets —
    /// the Loop-over-GEMM entry point (offset + slice-stride addressing of
    /// paper Fig. 3; the strides live in the spec).
    #[inline]
    pub fn execute_offset(
        &self,
        a: &[f64],
        ao: usize,
        b: &[f64],
        bo: usize,
        c: &mut [f64],
        co: usize,
    ) {
        self.execute(&a[ao..], &b[bo..], &mut c[co..]);
    }

    /// Runs the planned multiplication over a strided batch of operand
    /// triples — the cell-block entry point. One call amortizes the
    /// shared operand (batch stride `0`) across the whole batch instead
    /// of reloading it per cell.
    #[inline]
    pub fn execute_batched(&self, batch: &GemmBatch, a: &[f64], b: &[f64], c: &mut [f64]) {
        #[cfg(debug_assertions)]
        self.debug_check_packed(a, b);
        // SAFETY: `with_backend` verified the host supports the kernel.
        unsafe {
            self.backend
                .run_batched(&self.spec, batch, a, b, c, self.packed())
        };
    }

    /// Useful flops per execution.
    pub fn flops(&self) -> u64 {
        self.spec.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        aderdg_tensor::Lcg::new(seed).vec(len, -1.0, 1.0)
    }

    fn check_against_naive(spec: GemmSpec, seed: u64) {
        let (ra, rb, rc) = spec.required_lens();
        let a = rand_vec(ra.max(1), seed);
        let b = rand_vec(rb.max(1), seed ^ 0xABCD);
        let c0 = rand_vec(rc.max(1), seed ^ 0x1234);

        let mut c_ref = c0.clone();
        gemm_naive(&spec, &a, &b, &mut c_ref);

        let mut c_plan = c0.clone();
        Gemm::new(spec).execute(&a, &b, &mut c_plan);
        assert_close(&c_plan, &c_ref, &spec);
    }

    fn assert_close(got: &[f64], want: &[f64], spec: &GemmSpec) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-11 * (1.0 + w.abs()),
                "spec={spec:?} idx={i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn matches_naive_across_shapes() {
        let shapes = [
            (1, 1, 1),
            (4, 16, 4),
            (5, 17, 3),
            (8, 24, 8),
            (3, 5, 7),
            (6, 48, 6),
            (11, 33, 9),
            (16, 16, 16),
            (2, 130, 4),
        ];
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            check_against_naive(GemmSpec::dense(m, n, k), 7 + i as u64);
        }
    }

    #[test]
    fn matches_naive_with_strides_and_scales() {
        let mut seed = 100;
        for &(m, n, k) in &[(4, 16, 4), (5, 9, 6), (7, 21, 7)] {
            for &(da, db, dc) in &[(0, 0, 0), (3, 1, 5), (1, 7, 2)] {
                for &(alpha, beta) in &[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.25), (2.0, -1.0)] {
                    let spec = GemmSpec::dense(m, n, k)
                        .with_ld(k + da, n + db, n + dc)
                        .with_scale(alpha, beta);
                    check_against_naive(spec, seed);
                    seed += 1;
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let spec = GemmSpec::dense(4, 16, 2);
        let a = vec![1.0; 8];
        let b = vec![1.0; 32];
        let mut c = vec![f64::NAN; 64];
        Gemm::new(spec).execute(&a, &b, &mut c);
        assert!(c.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn padded_b_columns_produce_zero_c_columns() {
        // B has n = 8 columns of which the last 3 are zero padding; with
        // beta = 0 the corresponding C columns must come out exactly zero
        // (the "padding flops for free" invariant of Sec. III-A).
        let spec = GemmSpec::dense(4, 8, 4);
        let a = rand_vec(16, 5);
        let mut b = rand_vec(32, 6);
        for row in 0..4 {
            for j in 5..8 {
                b[row * 8 + j] = 0.0;
            }
        }
        let mut c = vec![1.0; 32];
        Gemm::new(spec).execute(&a, &b, &mut c);
        for row in 0..4 {
            for j in 5..8 {
                assert_eq!(c[row * 8 + j], 0.0);
            }
        }
    }

    #[test]
    fn isa_ordering_and_clamp() {
        let host = Isa::detect();
        let plan = Gemm::with_isa(GemmSpec::dense(2, 2, 2), Isa::Avx512);
        assert!(plan.isa() <= host.min(Isa::Avx512).max(host));
    }

    /// Batched execution must equal the per-item loop for every stride
    /// pattern (shared A, shared B, fully strided, fused rows).
    #[test]
    fn batched_matches_per_item_loop() {
        let cases = [
            // (m, n, k, batch, stride_a, stride_b, stride_c)
            (5, 8, 5, 4, 0, 5 * 8, 5 * 8), // shared A (operator · panels)
            (3, 8, 5, 6, 3 * 5, 0, 3 * 8), // shared B, row-stacked (fusable)
            (4, 16, 4, 3, 4 * 4, 4 * 16, 4 * 16), // fully strided
            (5, 17, 6, 2, 40, 110, 90),    // padded gaps between items
            (2, 8, 2, 1, 0, 0, 16),        // single-item batch
        ];
        for (ci, &(m, n, k, count, sa, sb, sc)) in cases.iter().enumerate() {
            let spec = GemmSpec::dense(m, n, k);
            let batch = GemmBatch::new(count, sa, sb, sc);
            let (ra, rb, rc) = batch.required_lens(&spec);
            let a = rand_vec(ra.max(1), 900 + ci as u64);
            let b = rand_vec(rb.max(1), 1900 + ci as u64);
            let c0 = rand_vec(rc.max(1), 2900 + ci as u64);

            let mut c_ref = c0.clone();
            for i in 0..count {
                gemm_naive(&spec, &a[i * sa..], &b[i * sb..], &mut c_ref[i * sc..]);
            }

            let mut c_plan = c0.clone();
            Gemm::new(spec).execute_batched(&batch, &a, &b, &mut c_plan);
            assert_close(&c_plan, &c_ref, &spec);
        }
    }

    /// Items that interleave row by row without touching — the AoSoA
    /// z-sweep's `k2` slices of one cell — run as one batch and equal
    /// the per-item loop.
    #[test]
    fn interleaved_batch_matches_per_item_loop() {
        let (n, count) = (8, 3);
        let spec = GemmSpec::dense(4, n, 4)
            .with_ld(4, count * n + 2, count * n + 2)
            .with_scale(0.5, 1.0);
        let batch = GemmBatch::shared_a(count, n, n);
        let (ra, rb, rc) = batch.required_lens(&spec);
        let a = rand_vec(ra, 41);
        let b = rand_vec(rb, 42);
        let c0 = rand_vec(rc, 43);
        let mut c_ref = c0.clone();
        for i in 0..count {
            gemm_naive(&spec, &a, &b[i * n..], &mut c_ref[i * n..]);
        }
        let mut c_plan = c0;
        Gemm::new(spec).execute_batched(&batch, &a, &b, &mut c_plan);
        assert_close(&c_plan, &c_ref, &spec);
    }

    #[test]
    #[should_panic(expected = "overlaps items")]
    fn overlapping_interleaved_batch_panics() {
        // The last item's row runs past the first item's row (3·8 > 20).
        let spec = GemmSpec::dense(2, 8, 2).with_ld(2, 8, 20);
        let batch = GemmBatch::shared_a(3, 8, 8);
        let (ra, rb, rc) = batch.required_lens(&spec);
        Gemm::new(spec).execute_batched(&batch, &vec![0.0; ra], &vec![0.0; rb], &mut vec![0.0; rc]);
    }

    #[test]
    fn fuse_rows_detects_row_stacked_shared_b() {
        let spec = GemmSpec::dense(3, 8, 5);
        let fused = GemmBatch::shared_b(4, 3 * 5, 3 * 8)
            .fuse_rows(&spec)
            .unwrap();
        assert_eq!(fused.m, 12);
        assert_eq!((fused.n, fused.k), (8, 5));
        // Shared-A and gapped batches must not fuse.
        assert!(GemmBatch::shared_a(4, 40, 24).fuse_rows(&spec).is_none());
        assert!(GemmBatch::shared_b(4, 16, 24).fuse_rows(&spec).is_none());
    }

    #[test]
    #[should_panic(expected = "batched C too short")]
    fn batched_check_rejects_short_c() {
        let spec = GemmSpec::dense(2, 2, 2);
        let batch = GemmBatch::new(3, 0, 0, 4);
        Gemm::new(spec).execute_batched(&batch, &[0.0; 4], &[0.0; 4], &mut [0.0; 8]);
    }

    #[test]
    fn execute_offset_addresses_slices() {
        // Multiply the lower-right 2x2 block of a 4x4 tensor by identity.
        let spec = GemmSpec::dense(2, 2, 2).with_ld(2, 4, 4);
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let t: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut out = vec![0.0; 16];
        // B slice = rows 2..4, cols 2..4 of t => offset 2*4+2 = 10.
        Gemm::new(spec).execute_offset(&eye, 0, &t, 10, &mut out, 10);
        assert_eq!(out[10], 10.0);
        assert_eq!(out[11], 11.0);
        assert_eq!(out[14], 14.0);
        assert_eq!(out[15], 15.0);
        assert_eq!(out[0], 0.0);
    }
}
