//! The GEMM kernel trait and its one lookup — the runtime-dispatch half
//! of the LIBXSMM substitute (paper Sec. II-D).
//!
//! A [`GemmBackend`] is one compiled instantiation of the packed
//! register-tiled driver ([`crate::micro`]) for one ISA level; the
//! instantiations live in [`crate::tiles`]. An [`Isa`] level names its
//! kernel ([`backend_for`]), so there is no registry to walk. Like
//! LIBXSMM's generated kernels, the choice happens **once at plan time**:
//! [`Gemm::with_isa`](crate::Gemm::with_isa) clamps the ISA cap to
//! [`Isa::detect`] and takes that level's kernel.
//! The hot call ([`Gemm::execute`](crate::Gemm::execute) or
//! [`execute_batched`](crate::Gemm::execute_batched)) is a single virtual
//! call into pre-monomorphized code — the trait granularity is one *whole
//! batch* of GEMMs, not one tile or one item: the hot shapes run hundreds
//! of sub-microsecond tiles per call, so per-tile (or per-item) dispatch
//! and validation would cost a measurable fraction of the kernel itself.
//!
//! Adding an architecture is one [`Isa`] level (a variant and its
//! [`Isa::detect`] branch), one tile block and one arm in [`backend_for`].

use crate::kernels::Isa;
use crate::micro::{pack_a_panels, pack_b_panels, PackedOperands, PackedPanels};
use crate::spec::{GemmBatch, GemmSpec};
use crate::tiles::BaselineKernel;
#[cfg(target_arch = "x86_64")]
use crate::tiles::{Avx2Kernel, Avx512Kernel};

/// One compiled GEMM kernel selectable at plan time.
///
/// Planned code reaches a kernel through [`Gemm`](crate::Gemm), which
/// checks `isa() <= Isa::detect()` once at construction and is the safe
/// door to the two `unsafe` entry points.
pub trait GemmBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier (e.g. `avx512`).
    fn name(&self) -> &'static str;

    /// The ISA level this kernel is compiled for. The host can execute
    /// the kernel iff this is at or below [`Isa::detect`] — the one CPU
    /// probe, whose `Avx512 ⇒ Avx2 ⇒ Baseline` chain makes every
    /// narrower level's wrapper safe too.
    fn isa(&self) -> Isa;

    /// Register tile `(MR, NR)` this kernel runs `spec` on: `MR` rows of
    /// `C` held in accumulators, `NR` doubles wide. `NR` may depend on
    /// `spec.n` only, so `B` panels packed for a spec stay valid when
    /// [`run_batched`](Self::run_batched) fuses rows (which changes `m`);
    /// `MR` may follow `spec.m` (`A` panels are dropped on fusion).
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
    /// not a wrong answer — and packing column-edge tiles on the fly
    /// otherwise ([`PackedOperands::none`] is the plain unpacked call).
    /// The one-item [`run_batched`](Self::run_batched).
    ///
    /// # Safety
    /// The host must support this kernel (`isa() <= Isa::detect()`).
    unsafe fn execute(
        &self,
        spec: &GemmSpec,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    ) {
        // SAFETY: forwarded support contract.
        unsafe { self.run_batched(spec, &GemmBatch::ONE, a, b, c, packed) }
    }

    /// Runs `spec` over a strided batch of operand triples (operand `i`
    /// starts at `i * batch.stride_{a,b,c}`; a stride of `0` shares the
    /// operand across the batch) — the cell-block execution path where one
    /// operator load serves a whole block of cells.
    ///
    /// The batch is checked once ([`GemmBatch::check`] when it has
    /// several items, plus one operand and panel check), its depth
    /// dispatched once, and the items looped inside the tile's
    /// `#[target_feature]` wrapper, each on its exact sub-slices, so an
    /// out-of-bounds stride fails loudly. Row-stacked shared-`B` batches
    /// collapse into one tall item ([`GemmBatch::fuse_rows`]; plan-cached
    /// `B` panels survive fusion because only `m` changes). Panels apply
    /// only to operands the batch actually shares (stride `0`).
    ///
    /// # Safety
    /// The host must support this kernel (`isa() <= Isa::detect()`).
    unsafe fn run_batched(
        &self,
        spec: &GemmSpec,
        batch: &GemmBatch,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        packed: PackedOperands<'_>,
    );
}

/// The kernel compiled for `isa`: there is one per level, so the level
/// identifies it. The host can run it iff `isa <= Isa::detect()`
/// ([`Gemm::with_backend`](crate::Gemm::with_backend) asserts that).
/// Targets without the wide tiles never detect a wide level; there every
/// level maps to the portable kernel.
pub fn backend_for(isa: Isa) -> &'static dyn GemmBackend {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &Avx512Kernel,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &Avx2Kernel,
        _ => &BaselineKernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm_naive, Gemm};

    #[test]
    fn baseline_is_always_supported_and_last_resort() {
        assert_eq!(Isa::supported().next(), Some(Isa::Baseline));
        assert_eq!(backend_for(Isa::Baseline).name(), "baseline");
        let plan = Gemm::with_isa(GemmSpec::dense(2, 2, 2), Isa::Baseline);
        assert_eq!(plan.backend().name(), "baseline");
    }

    #[test]
    fn selection_respects_cap_and_host() {
        for cap in Isa::ALL {
            let plan = Gemm::with_isa(GemmSpec::dense(2, 2, 2), cap);
            assert_eq!(plan.backend().isa(), cap.min(Isa::detect()), "cap {cap:?}");
        }
        // The uncapped selection must match plain feature detection.
        let plan = Gemm::new(GemmSpec::dense(2, 2, 2));
        assert_eq!(plan.backend().isa(), Isa::detect());
    }

    /// `isa() <= Isa::detect()` equals a direct probe of the features
    /// each tile's `#[target_feature]` wrapper enables (the compiler lets
    /// `avx512f` code use AVX2 as well, so the AVX-512 tile needs it too).
    #[test]
    fn supported_matches_probe_of_wrapper_features() {
        for isa in Isa::ALL {
            let bk = backend_for(isa);
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
            assert_eq!(bk.isa() <= Isa::detect(), probed, "{}", bk.name());
        }
    }

    /// Exactly one kernel per ISA level: walked widest first, the levels
    /// of the kernels `backend_for` returns descend strictly to baseline.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn backends_are_ordered_widest_first() {
        let list: Vec<_> = Isa::ALL.iter().rev().map(|&isa| backend_for(isa)).collect();
        for pair in list.windows(2) {
            assert!(pair[0].isa() > pair[1].isa());
        }
        assert_eq!(list.last().unwrap().isa(), Isa::Baseline);
    }

    /// Each kernel's name identifies its level: the name leads back to
    /// the level it was looked up by, a plan built for a supported level
    /// reports that name, and an unknown name matches no kernel.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn backend_by_name_round_trips() {
        let names = Isa::ALL.map(|isa| backend_for(isa).name());
        assert_eq!(names, ["baseline", "avx2", "avx512"]);
        for isa in Isa::ALL {
            let name = backend_for(isa).name();
            let back = Isa::ALL
                .into_iter()
                .find(|&i| backend_for(i).name() == name);
            assert_eq!(back, Some(isa), "{name}");
        }
        for isa in Isa::supported() {
            let plan = Gemm::with_isa(GemmSpec::dense(2, 2, 2), isa);
            assert_eq!(plan.backend().name(), backend_for(isa).name());
        }
        assert!(!names.contains(&"turbo"));
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

        for bk in Isa::supported().map(backend_for) {
            let (mr, nr) = bk.tile(&spec);
            assert_eq!(bk.pack_a(&spec, &a).tile(), mr, "{}", bk.name());
            assert_eq!(bk.pack_b(&spec, &b).tile(), nr, "{}", bk.name());
            let mut c = c0.clone();
            Gemm::with_backend(spec, bk)
                .with_packed_a(&a)
                .with_packed_b(&b)
                .execute(&a, &b, &mut c);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!((x - y).abs() < 1e-12, "{}", bk.name());
            }
        }
    }
}
