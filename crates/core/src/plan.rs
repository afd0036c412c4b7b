//! Kernel plans — the code-generation stage.
//!
//! The paper's Kernel Generator renders Jinja2 templates with every size,
//! stride, padding and operator matrix hard-coded per application and
//! architecture (Sec. II-D). [`StpPlan`] is the Rust equivalent: built once
//! per `(order, quantities, evolved rows, SIMD level, mesh spacing)`, it
//! holds the padded layouts, the scaled derivative operators, and the
//! pre-dispatched GEMM plans every kernel variant executes against.
//! Kernels themselves contain no size logic.

use aderdg_gemm::{Gemm, GemmSpec, Isa};
use aderdg_quadrature::{taylor_coefficients, Basis1d};
use aderdg_tensor::{DofLayout, FaceLayout};

/// The four measured Space-Time Predictor variants of the paper.
///
/// This enum is *not* a dispatch mechanism — execution goes through
/// [`StpKernel`](crate::kernels::StpKernel) objects resolved from the
/// [`KernelRegistry`](crate::registry::KernelRegistry). It remains as the
/// key of the analytic models (instruction mix, memory traces) and the
/// figure harnesses, which reproduce exactly the paper's four bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Scalar reference implementation (Fig. 1).
    Generic,
    /// Loop-over-GEMM on the padded AoS layout (Sec. III).
    LoG,
    /// Dimension-split, footprint-minimized Cauchy-Kowalewsky (Fig. 5).
    SplitCk,
    /// SplitCK on the hybrid AoSoA layout with vectorized user functions
    /// (Sec. V).
    AoSoASplitCk,
}

impl KernelVariant {
    /// All variants in the paper's presentation order.
    pub const ALL: [KernelVariant; 4] = [
        KernelVariant::Generic,
        KernelVariant::LoG,
        KernelVariant::SplitCk,
        KernelVariant::AoSoASplitCk,
    ];

    /// Registry key of the corresponding kernel (the specification-file
    /// name).
    pub fn key(&self) -> &'static str {
        match self {
            KernelVariant::Generic => "generic",
            KernelVariant::LoG => "log",
            KernelVariant::SplitCk => "splitck",
            KernelVariant::AoSoASplitCk => "aosoa_splitck",
        }
    }

    /// The kernel implementing this variant, from the registry table.
    pub fn kernel(&self) -> &'static dyn crate::kernels::StpKernel {
        crate::registry::KernelRegistry::global()
            .resolve(self.key())
            // PANIC-OK: internal invariant — the registry table holds all
            // four built-in variants.
            .expect("built-in kernel variants are always in the table")
    }
}

/// Problem-size configuration of an STP kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StpConfig {
    /// Quadrature nodes per dimension (= order `N` of the scheme).
    pub order: usize,
    /// Stored quantities per node (`m`).
    pub quantities: usize,
    /// Evolved quantities per node — the leading rows of the `m` that a
    /// flux can be nonzero on (the rest are parameters, whose flux is
    /// zero by the [`LinearPde`](aderdg_pde::LinearPde) contract). Sizes
    /// [`StpPlan::flux_face`]; must be at least the PDE's `num_vars()`.
    pub vars: usize,
    /// SIMD level: the padding unit of the volume layouts (face layouts
    /// pad to at most [`Isa::Avx2`]) and the cap of the GEMM tile and
    /// lane kernels (which run at most at [`Isa::detect`]).
    pub width: Isa,
}

impl StpConfig {
    /// Configuration at the host's SIMD level, with every stored quantity
    /// counted as evolved (`vars = quantities`).
    pub fn new(order: usize, quantities: usize) -> Self {
        Self {
            order,
            quantities,
            vars: quantities,
            width: Isa::detect(),
        }
    }

    /// Overrides the SIMD level (e.g. the paper's AVX2-on-Skylake runs).
    pub fn with_width(mut self, width: Isa) -> Self {
        self.width = width;
        self
    }

    /// Sets the evolved-row count (`vars ≤ quantities`).
    pub fn with_vars(mut self, vars: usize) -> Self {
        self.vars = vars;
        self
    }
}

/// Everything a kernel invocation needs, precomputed.
#[derive(Debug, Clone)]
pub struct StpPlan {
    /// Size configuration.
    pub cfg: StpConfig,
    /// 1-D basis operators.
    pub basis: Basis1d,
    /// Padded AoS layout of the volume tensors.
    pub aos: DofLayout,
    /// AoSoA layout of the volume tensors (Sec. V variant).
    pub aosoa: DofLayout,
    /// Face-tensor layout of `q̄` traces: all `m` stored rows (the
    /// Riemann solve reads the wavespeed from the parameter rows), padded
    /// to `min(width, Avx2)`: at most 4 doubles.
    pub face: FaceLayout,
    /// Face-tensor layout of every flux trace (`F̄` traces, `F*`): the
    /// first `vars` rows only, padded as [`StpPlan::face`] — a flux's
    /// parameter rows are zero.
    pub flux_face: FaceLayout,
    /// Reciprocal cell edge lengths the derivative operators are scaled by.
    pub inv_dx: [f64; 3],
    /// `Dᵀ` zero-padded to `n_pad` columns (AoSoA x-derivative operand).
    pub diff_t_padded: Vec<f64>,
    /// GEMM plans for the AoS (LoG) derivatives, per dimension, overwrite
    /// (`beta = 0`) flavour.
    pub gemm_aos: [Gemm; 3],
    /// Accumulating (`beta = 1`) flavour of [`StpPlan::gemm_aos`].
    pub gemm_aos_acc: [Gemm; 3],
    /// GEMM plans for the AoSoA derivatives over all `m` stored rows,
    /// overwrite flavour (the ncp gradient; the flux derivatives run on
    /// the evolved rows only, see [`StpPlan::aosoa_flux_gemms`]).
    pub gemm_aosoa: [Gemm; 3],
}

impl StpPlan {
    /// Builds a plan for cells of edge length `dx` (per dimension), using
    /// the widest GEMM kernel the host supports (capped by `cfg.width`).
    pub fn new(cfg: StpConfig, dx: [f64; 3]) -> Self {
        Self::build(cfg, dx, &|spec| Gemm::with_isa(spec, cfg.width))
    }

    /// Builds a plan whose GEMMs all dispatch to an explicit kernel — how
    /// tests put a narrower tile under the STP kernels on a SIMD host
    /// without narrowing the padding width.
    pub fn with_gemm_backend(
        cfg: StpConfig,
        dx: [f64; 3],
        backend: &'static dyn aderdg_gemm::GemmBackend,
    ) -> Self {
        Self::build(cfg, dx, &|spec| Gemm::with_backend(spec, backend))
    }

    /// The GEMM kernel this plan's STP kernels dispatch to (uniform
    /// across all of the plan's GEMMs by construction).
    pub fn gemm_backend(&self) -> &'static dyn aderdg_gemm::GemmBackend {
        self.gemm_aos[0].backend()
    }

    /// The ISA level a predictor under this plan runs at — the GEMM
    /// backend's, which the lane kernels (vectorised user functions,
    /// Taylor axpy, face projection) follow: one decision per plan.
    pub fn isa(&self) -> Isa {
        self.gemm_backend().isa()
    }

    /// GEMM plans of the AoSoA *flux* derivatives, restricted to the first
    /// `vars` (evolved) quantity rows through leading dimensions only —
    /// the parameter rows of a flux tensor are zero by the
    /// [`LinearPde`](aderdg_pde::LinearPde) contract, so multiplying them
    /// is wasted work:
    ///
    /// * `x`: `vars × n_pad` per `(k3, k2)` block (block stride
    ///   `m · n_pad`), overwriting (`beta = 0`) — the first sweep of a
    ///   Taylor order initializes the destination;
    /// * `y`: `n × vars·n_pad` per `k3` at `ld = m·n_pad`, accumulating;
    /// * `z`: the same width per `k2` at `ld = n·m·n_pad`, accumulating.
    ///
    /// Operator panels are packed here, on the plan's GEMM backend.
    pub fn aosoa_flux_gemms(&self, vars: usize) -> [Gemm; 3] {
        let (n, m, n_pad) = (self.n(), self.m(), self.aosoa.n_pad());
        assert!(vars <= m, "more evolved rows than stored quantities");
        let backend = self.gemm_backend();
        let wide = |d: usize, ld: usize| {
            let spec = GemmSpec {
                m: n,
                n: vars * n_pad,
                k: n,
                lda: n,
                ldb: ld,
                ldc: ld,
                alpha: self.inv_dx[d],
                beta: 1.0,
            };
            Gemm::with_backend(spec, backend).with_packed_a(&self.basis.diff)
        };
        let x = GemmSpec {
            m: vars,
            ..*self.gemm_aosoa[0].spec()
        };
        [
            Gemm::with_backend(x, backend).with_packed_b(&self.diff_t_padded),
            wide(1, m * n_pad),
            wide(2, n * m * n_pad),
        ]
    }

    fn build(cfg: StpConfig, dx: [f64; 3], plan_gemm: &dyn Fn(GemmSpec) -> Gemm) -> Self {
        let n = cfg.order;
        let m = cfg.quantities;
        assert!(n >= 2, "ADER-DG needs at least two nodes per dimension");
        assert!(m >= 1, "at least one quantity");
        assert!(
            (1..=m).contains(&cfg.vars),
            "evolved rows must be between 1 and the stored quantities"
        );
        let basis = Basis1d::new(n);
        let aos = DofLayout::aos(n, m, cfg.width);
        let aosoa = DofLayout::aosoa(n, m, cfg.width);
        // Face tensors pad to at most 4 doubles: they stream between the
        // step's tasks, so every padding row is memory traffic, and no
        // face kernel needs more. The projection and the face lift give
        // the same bits at every lane width (unfused, ordered), the
        // Riemann solve is scalar, and `dispatch` runs a 4-row granule
        // on the AVX2 body.
        let face_width = cfg.width.min(Isa::Avx2);
        let face = FaceLayout::new(n, m, face_width);
        let flux_face = FaceLayout::new(n, cfg.vars, face_width);
        let inv_dx = [1.0 / dx[0], 1.0 / dx[1], 1.0 / dx[2]];
        let diff_t_padded = basis.diff_t_padded(aosoa.n_pad());

        let m_pad = aos.m_pad();
        let n_pad = aosoa.n_pad();

        // AoS derivative GEMMs: C = D · (tensor slice), unit stride over
        // the padded quantity dimension; y and z fuse the faster dims.
        let spec_aos = |d: usize| -> GemmSpec {
            let cols = match d {
                0 => m_pad,         // x: slice per (k3, k2)
                1 => n * m_pad,     // y: fused (k1, s) per k3
                _ => n * n * m_pad, // z: fused (k2, k1, s), one GEMM
            };
            GemmSpec {
                m: n,
                n: cols,
                k: n,
                lda: n,
                ldb: cols,
                ldc: cols,
                alpha: inv_dx[d],
                beta: 0.0,
            }
        };
        // AoSoA derivative GEMMs: x uses the transposed form
        // C(m × n_pad) = A(block) · Dᵀ (Sec. V-B case 1); y and z fuse
        // (s, k1) resp. (k2, s, k1) (case 2, Fig. 7).
        let spec_aosoa = |d: usize| -> GemmSpec {
            match d {
                0 => GemmSpec {
                    m,
                    n: n_pad,
                    k: n,
                    lda: n_pad,
                    ldb: n_pad,
                    ldc: n_pad,
                    alpha: inv_dx[0],
                    beta: 0.0,
                },
                1 => GemmSpec {
                    m: n,
                    n: m * n_pad,
                    k: n,
                    lda: n,
                    ldb: m * n_pad,
                    ldc: m * n_pad,
                    alpha: inv_dx[1],
                    beta: 0.0,
                },
                _ => GemmSpec {
                    m: n,
                    n: n * m * n_pad,
                    k: n,
                    lda: n,
                    ldb: n * m * n_pad,
                    ldc: n * m * n_pad,
                    alpha: inv_dx[2],
                    beta: 0.0,
                },
            }
        };
        let acc = |spec: GemmSpec| plan_gemm(spec.accumulate());

        // The operator operands are fixed for the plan's lifetime: every
        // AoS derivative multiplies `D` on the left, the AoSoA x-sweep
        // multiplies `Dᵀ` (padded) on the right, and the fused AoSoA
        // sweeps multiply `D` on the left. Pack them into tile panels
        // once here — the per-step kernels then walk cached panels,
        // amortizing the packing cost over every cell block of every step.
        let pack_aos = |g: Gemm| g.with_packed_a(&basis.diff);
        let pack_aosoa = |d: usize, g: Gemm| {
            if d == 0 {
                g.with_packed_b(&diff_t_padded)
            } else {
                g.with_packed_a(&basis.diff)
            }
        };

        Self {
            cfg,
            gemm_aos: [
                pack_aos(plan_gemm(spec_aos(0))),
                pack_aos(plan_gemm(spec_aos(1))),
                pack_aos(plan_gemm(spec_aos(2))),
            ],
            gemm_aos_acc: [
                pack_aos(acc(spec_aos(0))),
                pack_aos(acc(spec_aos(1))),
                pack_aos(acc(spec_aos(2))),
            ],
            gemm_aosoa: [
                pack_aosoa(0, plan_gemm(spec_aosoa(0))),
                pack_aosoa(1, plan_gemm(spec_aosoa(1))),
                pack_aosoa(2, plan_gemm(spec_aosoa(2))),
            ],
            basis,
            aos,
            aosoa,
            face,
            flux_face,
            inv_dx,
            diff_t_padded,
        }
    }

    /// Order (nodes per dimension).
    #[inline]
    pub fn n(&self) -> usize {
        self.cfg.order
    }

    /// Stored quantities.
    #[inline]
    pub fn m(&self) -> usize {
        self.cfg.quantities
    }

    /// Taylor coefficients `Δtᵒ⁺¹/(o+1)!` for `o = 0..=N` (eq. 4).
    pub fn taylor(&self, dt: f64) -> Vec<f64> {
        taylor_coefficients(dt, self.n() + 1)
    }

    /// Batch descriptors for the AoS derivative along `d`:
    /// `(batch_count, batch_stride)` — GEMM `i` operates at offset
    /// `i * batch_stride` of both source and destination.
    pub fn aos_batches(&self, d: usize) -> (usize, usize) {
        let n = self.n();
        let m_pad = self.aos.m_pad();
        match d {
            0 => (n * n, n * m_pad),
            1 => (n, n * n * m_pad),
            _ => (1, 0),
        }
    }

    /// Batch descriptors for the AoSoA derivative along `d`.
    pub fn aosoa_batches(&self, d: usize) -> (usize, usize) {
        let n = self.n();
        let m = self.m();
        let n_pad = self.aosoa.n_pad();
        match d {
            0 => (n * n, m * n_pad),
            1 => (n, n * m * n_pad),
            _ => (1, 0),
        }
    }
}

/// Point-source data projected onto one cell: per-node spatial projection
/// coefficients (tensor product of 1-D `φ_k(ξ0)/w_k`, divided by the cell
/// volume) and the per-order time derivatives of the amplitude at `t_n`.
#[derive(Debug, Clone)]
pub struct CellSource {
    /// `n³` nodal coefficients (unpadded node-major order `k3, k2, k1`).
    pub node_coeffs: Vec<f64>,
    /// `derivs[o][s]`: o-th time derivative of the source amplitude for
    /// quantity `s` at `t_n`, `o = 0..=N`.
    pub derivs: Vec<Vec<f64>>,
}

impl CellSource {
    /// Projects a delta at reference position `xi` within a cell of edge
    /// lengths `dx`, using the plan's basis:
    /// `c_k = Π_d φ_{k_d}(ξ_d) / (w_{k_d} dx_d)`.
    pub fn project(plan: &StpPlan, xi: [f64; 3], dx: [f64; 3], derivs: Vec<Vec<f64>>) -> Self {
        let n = plan.n();
        let per_dim: Vec<Vec<f64>> = (0..3)
            .map(|d| {
                plan.basis
                    .point_source_coeffs(xi[d])
                    .iter()
                    .map(|c| c / dx[d])
                    .collect()
            })
            .collect();
        let mut node_coeffs = Vec::with_capacity(n * n * n);
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    node_coeffs.push(per_dim[2][k3] * per_dim[1][k2] * per_dim[0][k1]);
                }
            }
        }
        Self {
            node_coeffs,
            derivs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(n: usize, m: usize) -> StpPlan {
        StpPlan::new(StpConfig::new(n, m), [1.0; 3])
    }

    #[test]
    fn variant_names() {
        assert_eq!(KernelVariant::ALL.len(), 4);
        assert_eq!(KernelVariant::LoG.kernel().label(), "LoG");
    }

    #[test]
    fn gemm_specs_cover_whole_tensor() {
        let p = plan(5, 9);
        // Summed over batches, every derivative sweep touches all n³ nodes.
        for d in 0..3 {
            let (count, stride) = p.aos_batches(d);
            let spec = p.gemm_aos[d].spec();
            assert_eq!(spec.m * spec.n * count, 5 * 5 * 5 * p.aos.m_pad());
            if count > 1 {
                assert_eq!(stride * count, p.aos.len());
            }
            let (count_h, stride_h) = p.aosoa_batches(d);
            let spec_h = p.gemm_aosoa[d].spec();
            let total_h = match d {
                0 => spec_h.m * spec_h.n * count_h,
                _ => spec_h.m * spec_h.n * count_h,
            };
            assert_eq!(total_h, 5 * 5 * 9 * p.aosoa.n_pad());
            if count_h > 1 {
                assert_eq!(stride_h * count_h, p.aosoa.len());
            }
        }
    }

    #[test]
    fn derivative_scaling_enters_alpha() {
        let p = StpPlan::new(StpConfig::new(4, 3), [0.5, 0.25, 2.0]);
        assert_eq!(p.gemm_aos[0].spec().alpha, 2.0);
        assert_eq!(p.gemm_aos[1].spec().alpha, 4.0);
        assert_eq!(p.gemm_aos[2].spec().alpha, 0.5);
        assert_eq!(p.gemm_aosoa[1].spec().alpha, 4.0);
    }

    #[test]
    fn flux_faces_pad_the_evolved_rows_only() {
        // Elastic: m = 21 stored, 9 evolved.
        // Faces pad to at most 4 doubles, so AVX-512 keeps AVX2's faces.
        for (width, q_pad, f_pad) in [
            (Isa::Baseline, 22, 10),
            (Isa::Avx2, 24, 12),
            (Isa::Avx512, 24, 12),
        ] {
            let cfg = StpConfig::new(7, 21).with_width(width);
            assert_eq!(cfg.vars, 21, "every row evolves unless told otherwise");
            let p = StpPlan::new(cfg, [1.0; 3]);
            assert_eq!(p.flux_face, p.face);
            let p = StpPlan::new(cfg.with_vars(9), [1.0; 3]);
            assert_eq!(p.face.len(), 49 * q_pad, "{width:?}");
            assert_eq!(p.flux_face.len(), 49 * f_pad, "{width:?}");
        }
    }

    #[test]
    #[should_panic(expected = "evolved rows")]
    fn rejects_more_evolved_rows_than_quantities() {
        let _ = StpPlan::new(StpConfig::new(3, 4).with_vars(5), [1.0; 3]);
    }

    #[test]
    fn taylor_length() {
        let p = plan(4, 2);
        assert_eq!(p.taylor(0.1).len(), 5);
    }

    #[test]
    fn source_projection_normalization() {
        // Integrating the projected delta against the constant-1 function
        // over the physical cell must give 1:
        // Σ_k (w_k dx³-weight) c_k = 1.
        let p = plan(5, 1);
        let dx = [0.5, 0.25, 1.0];
        let src = CellSource::project(&p, [0.3, 0.7, 0.5], dx, vec![]);
        let n = p.n();
        let w = &p.basis.weights;
        let mut total = 0.0;
        let mut idx = 0;
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let wk = w[k3] * w[k2] * w[k1] * dx[0] * dx[1] * dx[2];
                    total += wk * src.node_coeffs[idx];
                    idx += 1;
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-10, "total={total}");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_order_one() {
        let _ = plan(1, 1);
    }
}
