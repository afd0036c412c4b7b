//! The GEMM kernel trait and its registry — the runtime-dispatch half of
//! the LIBXSMM substitute (paper Sec. II-D).
//!
//! A [`GemmBackend`] is one compiled instantiation of the packed
//! register-tiled driver ([`crate::micro`]) for one ISA level; the
//! instantiations live in [`crate::tiles`]. Like LIBXSMM's generated
//! kernels, the choice happens **once at plan time**: [`select_backend`]
//! walks the registry widest-first and returns the first kernel at or
//! below the ISA cap that the host [supports](GemmBackend::supported).
//! The hot call ([`Gemm::execute`](crate::Gemm::execute)) is a single
//! virtual call into pre-monomorphized code — the trait granularity is one
//! *whole GEMM*, not one tile: the hot shapes run hundreds of
//! sub-microsecond tiles per call, so per-tile virtual dispatch would cost
//! a measurable fraction of the kernel itself.
//!
//! Adding an architecture is one [`Isa`] level (a variant and its
//! [`Isa::detect`] branch), one tile block and one entry in [`backends`].

use crate::kernels::Isa;
use crate::micro::{pack_a_panels, pack_b_panels, PackedOperands, PackedPanels};
use crate::spec::{GemmBatch, GemmSpec};
use crate::tiles::BaselineKernel;
#[cfg(target_arch = "x86_64")]
use crate::tiles::{Avx2Kernel, Avx512Kernel};

/// One compiled GEMM kernel selectable at plan time.
///
/// Planned code reaches a kernel through [`Gemm`](crate::Gemm), which
/// checks [`supported`](Self::supported) once at construction and is the
/// safe door to the two `unsafe` entry points.
pub trait GemmBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier (e.g. `avx512`).
    fn name(&self) -> &'static str;

    /// The ISA level this kernel is compiled for.
    fn isa(&self) -> Isa;

    /// Can the host execute this kernel? Its ISA level at or below
    /// [`Isa::detect`] — the one CPU probe, whose `Avx512 ⇒ Avx2 ⇒
    /// Baseline` chain makes every narrower level's wrapper safe too.
    fn supported(&self) -> bool {
        self.isa() <= Isa::detect()
    }

    /// Register tile `(MR, NR)` this kernel runs `spec` on: `MR` rows of
    /// `C` held in accumulators, `NR` doubles wide. May depend on `spec.n`
    /// only, so panels packed for a spec stay valid when
    /// [`run_batched`](Self::run_batched) fuses rows (which changes `m`).
    fn tile(&self, spec: &GemmSpec) -> (usize, usize);

    /// Packs the left operand into this kernel's `MR`-row panel layout,
    /// for reuse across calls.
    fn pack_a(&self, spec: &GemmSpec, a: &[f64]) -> PackedPanels {
        pack_a_panels(spec, a, self.tile(spec).0)
    }

    /// Packs the right operand into this kernel's `NR`-column panel
    /// layout, for reuse across calls.
    fn pack_b(&self, spec: &GemmSpec, b: &[f64]) -> PackedPanels {
        pack_b_panels(spec, b, self.tile(spec).1)
    }

    /// Runs `C ← α·A·B + β·C` per `spec`, reading packed panels where
    /// `packed` provides them — packed by **this** kernel from the same
    /// logical operands as the raw slices; a mismatched panel is a panic,
    /// not a wrong answer — and packing partial edge tiles on the fly
    /// otherwise ([`PackedOperands::none`] is the plain unpacked call).
    ///
    /// # Safety
    /// The host must support this kernel ([`supported`](Self::supported)).
    unsafe fn execute(
        &self,
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    );

    /// Runs `spec` over a strided batch of operand triples (operand `i`
    /// starts at `i * batch.stride_{a,b,c}`; a stride of `0` shares the
    /// operand across the batch) — the cell-block execution path where one
    /// operator load serves a whole block of cells.
    ///
    /// Row-stacked shared-`B` batches collapse into one tall
    /// [`execute`](Self::execute) call ([`GemmBatch::fuse_rows`];
    /// plan-cached `B` panels survive fusion because only `m` changes);
    /// everything else loops items with exact-length sub-slices, so an
    /// out-of-bounds stride fails loudly. Panels apply only to operands
    /// the batch actually shares (stride `0`).
    ///
    /// # Safety
    /// The host must support this kernel ([`supported`](Self::supported)).
    unsafe fn run_batched(
        &self,
        spec: &GemmSpec,
        batch: &GemmBatch,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        batch.check(spec, a, b, c);
        if let Some(fused) = batch.fuse_rows(spec) {
            // A-side panels describe the per-item `m`, not the fused tall
            // matrix; only shared-B panels carry over.
            let fused_packed = PackedOperands {
                a: None,
                b: packed.b,
            };
            // SAFETY: forwarded support contract.
            unsafe { self.execute(&fused, a, b, c, fused_packed) };
            return;
        }
        let (ra, rb, rc) = spec.required_lens();
        for i in 0..batch.count {
            let (ao, bo, co) = (i * batch.stride_a, i * batch.stride_b, i * batch.stride_c);
            let item = PackedOperands {
                a: if batch.stride_a == 0 { packed.a } else { None },
                b: if batch.stride_b == 0 { packed.b } else { None },
            };
            // SAFETY: forwarded support contract; `batch.check` bounded
            // every sub-slice.
            unsafe {
                self.execute(
                    spec,
                    &a[ao..ao + ra],
                    &b[bo..bo + rb],
                    &mut c[co..co + rc],
                    item,
                )
            };
        }
    }
}

/// All kernels, one per ISA level, widest (most preferred) first.
pub fn backends() -> &'static [&'static dyn GemmBackend] {
    #[cfg(target_arch = "x86_64")]
    {
        &[&Avx512Kernel, &Avx2Kernel, &BaselineKernel]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[&BaselineKernel]
    }
}

/// Picks the widest host-supported kernel at or below the `cap` ISA —
/// the plan-time selection step (the cap emulates the paper's
/// "AVX2 build on an AVX-512 machine" comparison, Fig. 4).
pub fn select_backend(cap: Isa) -> &'static dyn GemmBackend {
    backends()
        .iter()
        .copied()
        .find(|b| b.isa() <= cap && b.supported())
        .unwrap_or(&BaselineKernel)
}

/// Resolves a kernel by its [`name`](GemmBackend::name).
pub fn backend_by_name(name: &str) -> Option<&'static dyn GemmBackend> {
    backends().iter().copied().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm_naive, Gemm};

    #[test]
    fn baseline_is_always_supported_and_last_resort() {
        assert!(BaselineKernel.supported());
        assert_eq!(select_backend(Isa::Baseline).name(), "baseline");
    }

    #[test]
    fn selection_respects_cap_and_host() {
        for cap in [Isa::Baseline, Isa::Avx2, Isa::Avx512] {
            // The widest supported kernel at or below the cap, spelled
            // out independently of the registry walk.
            let want = backends()
                .iter()
                .filter(|b| b.isa() <= cap && b.supported())
                .max_by_key(|b| b.isa())
                .unwrap();
            assert_eq!(select_backend(cap).name(), want.name(), "cap {cap:?}");
        }
        // The uncapped selection must match plain feature detection.
        assert_eq!(select_backend(Isa::Avx512).isa(), Isa::detect());
    }

    /// `supported()` equals a direct probe of the features each tile's
    /// `#[target_feature]` wrapper enables (the compiler lets `avx512f`
    /// code use AVX2 as well, so the AVX-512 tile needs it too).
    #[test]
    fn supported_matches_probe_of_wrapper_features() {
        for bk in backends() {
            let probed = match bk.name() {
                "baseline" => true,
                #[cfg(target_arch = "x86_64")]
                "avx2" => {
                    !cfg!(miri)
                        && std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(target_arch = "x86_64")]
                "avx512" => {
                    !cfg!(miri)
                        && std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                        && std::arch::is_x86_feature_detected!("fma")
                        && std::arch::is_x86_feature_detected!("avx2")
                }
                other => panic!("no wrapper feature list for GEMM kernel `{other}`"),
            };
            assert_eq!(bk.supported(), probed, "{}", bk.name());
        }
    }

    #[test]
    fn backends_are_ordered_widest_first() {
        // Exactly one kernel per ISA level: strictly descending.
        let list = backends();
        for pair in list.windows(2) {
            assert!(pair[0].isa() > pair[1].isa());
        }
        assert_eq!(list.last().unwrap().isa(), Isa::Baseline);
    }

    #[test]
    fn backend_by_name_round_trips() {
        for b in backends() {
            assert_eq!(backend_by_name(b.name()).unwrap().name(), b.name());
        }
        assert!(backend_by_name("turbo").is_none());
    }

    #[test]
    fn packed_backends_accept_plan_cached_panels() {
        let spec = GemmSpec::dense(7, 11, 5).with_scale(1.5, 0.25);
        let (ra, rb, rc) = spec.required_lens();
        let mut rng = aderdg_tensor::Lcg::new(42);
        let a = rng.vec(ra, -1.0, 1.0);
        let b = rng.vec(rb, -1.0, 1.0);
        let c0 = rng.vec(rc, -1.0, 1.0);

        let mut c_ref = c0.clone();
        gemm_naive(&spec, &a, &b, &mut c_ref);

        for bk in backends().iter().filter(|bk| bk.supported()) {
            let (mr, nr) = bk.tile(&spec);
            assert_eq!(bk.pack_a(&spec, &a).tile(), mr, "{}", bk.name());
            assert_eq!(bk.pack_b(&spec, &b).tile(), nr, "{}", bk.name());
            let mut c = c0.clone();
            Gemm::with_backend(spec, *bk)
                .with_packed_a(&a)
                .with_packed_b(&b)
                .execute(&a, &b, &mut c);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!((x - y).abs() < 1e-12, "{}", bk.name());
            }
        }
    }
}
