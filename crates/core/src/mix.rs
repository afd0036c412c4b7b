//! Analytic SIMD instruction-mix model — the Fig. 9 measurement.
//!
//! The paper measures, with VTune, which fraction of floating-point
//! operations each kernel variant executes at which SIMD packing width.
//! Our kernels know this analytically from their own loop structure:
//!
//! * GEMM sweeps over padded tensors execute entirely at the plan width
//!   (padding included — the "free" flops of Sec. III-A),
//! * pointwise user functions execute scalar (generic, LoG, SplitCK),
//! * vectorized user functions execute at the plan width over padded
//!   x-lines (AoSoA, Fig. 8),
//! * unpadded loops vectorize with cascading remainders (compiler
//!   behaviour, generic variant).

use crate::plan::{KernelVariant, StpPlan};
use aderdg_perf::{classify_loop, classify_padded_loop, PackCounts};

/// Static description of the PDE's user-function cost, decoupled from a
/// live [`LinearPde`](aderdg_pde::LinearPde) instance so the model can be
/// evaluated for arbitrary configurations.
#[derive(Debug, Clone, Copy)]
pub struct UserFunctionCost {
    /// Flops of one pointwise flux evaluation in one direction.
    pub flux_flops: u64,
    /// Flops of one pointwise ncp evaluation (0 = no ncp term).
    pub ncp_flops: u64,
    /// Whether vectorized overrides exist (Fig. 8) for the AoSoA variant.
    pub vectorized: bool,
}

impl UserFunctionCost {
    /// Cost model of the paper's 21-quantity elastic benchmark.
    pub fn elastic() -> Self {
        Self {
            flux_flops: 3 * 16 + 9 * 2 + 8,
            ncp_flops: 0,
            vectorized: true,
        }
    }
}

/// Classified flop counts of one STP kernel invocation of `variant`.
pub fn stp_pack_counts(
    plan: &StpPlan,
    variant: KernelVariant,
    cost: UserFunctionCost,
) -> PackCounts {
    let n = plan.n() as u64;
    let m = plan.m() as u64;
    let m_pad = plan.aos.m_pad() as u64;
    let n_pad = plan.aosoa.n_pad() as u64;
    let vol = n * n * n;
    let w = plan.cfg.width;
    let has_ncp = cost.ncp_flops > 0;

    let mut counts = PackCounts::new();
    let scalar = |c: &mut PackCounts, flops: u64| c.add(None, flops);
    let packed = |c: &mut PackCounts, flops: u64| c.add(Some(w), flops);

    // --- user functions -------------------------------------------------
    // 3(N+1) flux sweeps (N iterations × 3 dims + time-averaged flux).
    let flux_sweeps = 3 * (n + 1);
    let ncp_sweeps = 3 * n;
    match variant {
        KernelVariant::AoSoASplitCk if cost.vectorized => {
            // Vectorized over padded x-lines: n_pad lanes per line of n.
            let lanes = vol / n * n_pad;
            packed(&mut counts, flux_sweeps * lanes * cost.flux_flops);
            if has_ncp {
                packed(&mut counts, ncp_sweeps * lanes * cost.ncp_flops);
            }
        }
        _ => {
            scalar(&mut counts, flux_sweeps * vol * cost.flux_flops);
            if has_ncp {
                scalar(&mut counts, ncp_sweeps * vol * cost.ncp_flops);
            }
        }
    }

    // --- tensor derivatives ----------------------------------------------
    // Per sweep: every output entry needs n multiply-adds. Sweeps: 3 per
    // iteration for the flux derivative, 3 more for gradQ with ncp.
    let deriv_sweeps = if has_ncp { 6 * n } else { 3 * n };
    match variant {
        KernelVariant::Generic => {
            // Strided gather contraction: scalar.
            scalar(&mut counts, deriv_sweeps * vol * m * 2 * n);
        }
        KernelVariant::LoG | KernelVariant::SplitCk => {
            packed(&mut counts, deriv_sweeps * vol * m_pad * 2 * n);
        }
        KernelVariant::AoSoASplitCk => {
            packed(&mut counts, deriv_sweeps * (vol / n) * m * n_pad * 2 * n);
        }
    }

    // --- Taylor-term summation and time averaging -------------------------
    // p_next = Σ_d dF (3 adds/entry per iteration) in generic/LoG;
    // SplitCK accumulates through GEMM beta=1 (already counted).
    // qavg/favg accumulation: 2 flops per entry per order (mul + add).
    match variant {
        KernelVariant::Generic => {
            // Unpadded, unaligned loops: the compiler vectorizes with
            // cascading remainders (what Fig. 9 shows as the generic
            // variant's small packed fraction).
            let accum_iters = n * 3 * vol; // p_next summation entries
            let tavg_iters = (n + 1) * 4 * vol; // qavg + 3 favg entries
            let c = classify_loop(m as usize, 1, w);
            counts = counts.merge(&c.scale(accum_iters));
            let c2 = classify_loop(m as usize, 2, w);
            counts = counts.merge(&c2.scale(tavg_iters));
        }
        KernelVariant::LoG => {
            let accum = n * 3 * vol * m_pad; // p_next adds
            let tavg = (n + 1) * 4 * vol * m_pad * 2;
            counts = counts.merge(&classify_padded_loop((accum + tavg) as usize, 1, w));
        }
        KernelVariant::SplitCk => {
            // On-the-fly qavg accumulation: (N+1) passes, 2 flops/entry.
            let tavg = (n + 1) * vol * m_pad * 2;
            counts = counts.merge(&classify_padded_loop(tavg as usize, 1, w));
        }
        KernelVariant::AoSoASplitCk => {
            let tavg = (n + 1) * (vol / n) * m * n_pad * 2;
            counts = counts.merge(&classify_padded_loop(tavg as usize, 1, w));
        }
    }

    // --- face projections --------------------------------------------------
    // 6 faces × 2 tensors, n³·m(, padded) entries contracted over n.
    let face_flops_unpadded = 6 * 2 * vol * m * 2;
    match variant {
        KernelVariant::Generic => scalar(&mut counts, face_flops_unpadded),
        _ => {
            // Unit-stride over the padded quantity dimension.
            packed(&mut counts, 6 * 2 * vol * m_pad * 2);
        }
    }

    counts
}

/// Classified flop counts of the per-cell *corrector + Riemann* work that
/// accompanies every predictor invocation. The paper's Fig. 9 measures the
/// full application: these engine parts stay (partially) scalar even in
/// the AoSoA configuration and are the source of its residual 2–4 %
/// scalar share.
pub fn corrector_pack_counts(
    plan: &StpPlan,
    variant: KernelVariant,
    cost: UserFunctionCost,
) -> PackCounts {
    let n = plan.n() as u64;
    let m = plan.m() as u64;
    let m_pad = plan.aos.m_pad() as u64;
    let vol = n * n * n;
    let w = plan.cfg.width;
    let mut counts = PackCounts::new();

    // Volume term: 3 derivative sweeps over favg (+3 over qavg with ncp).
    let vol_sweeps = if cost.ncp_flops > 0 { 6 } else { 3 };
    match variant {
        KernelVariant::Generic => counts.add(None, vol_sweeps * vol * m * 2 * n),
        _ => counts.add(Some(w), vol_sweeps * vol * m_pad * 2 * n),
    }
    // Riemann solves: 6 faces × n² nodes, pointwise (scalar in all
    // variants — one wavespeed max + the flux average per variable).
    counts.add(None, 6 * n * n * (m * 4));
    // Face corrections: 6 faces × n³ entries × 3 flops, short unit-stride
    // inner loops over m — partially vectorized by the compiler.
    let face_iters = 6 * n * n * n * 3;
    counts = counts.merge(&classify_loop(m as usize, 1, w).scale(face_iters));
    counts
}

/// Whole-application mix for one cell-step: predictor + corrector/Riemann.
/// This is what the paper's VTune measurement of Fig. 9 sees.
pub fn full_step_pack_counts(
    plan: &StpPlan,
    variant: KernelVariant,
    cost: UserFunctionCost,
) -> PackCounts {
    stp_pack_counts(plan, variant, cost).merge(&corrector_pack_counts(plan, variant, cost))
}

/// Useful (unpadded, algorithmic) flops of one invocation — the numerator
/// of the "% of available performance" metric. Identical across variants
/// by construction: padding and layout must not change the numerics.
pub fn stp_useful_flops(plan: &StpPlan, cost: UserFunctionCost) -> u64 {
    let n = plan.n() as u64;
    let m = plan.m() as u64;
    let vol = n * n * n;
    let has_ncp = cost.ncp_flops > 0;
    let mut flops = 0;
    flops += 3 * (n + 1) * vol * cost.flux_flops;
    if has_ncp {
        flops += 3 * n * vol * cost.ncp_flops;
    }
    let deriv_sweeps = if has_ncp { 6 * n } else { 3 * n };
    flops += deriv_sweeps * vol * m * 2 * n;
    flops += n * 3 * vol * m; // Taylor-term summation
    flops += (n + 1) * 4 * vol * m * 2; // time averaging
    flops += 6 * 2 * vol * m * 2; // face projections
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StpConfig;
    use aderdg_tensor::Isa;

    fn plan(n: usize) -> StpPlan {
        StpPlan::new(StpConfig::new(n, 21).with_width(Isa::Avx512), [1.0; 3])
    }

    #[test]
    fn generic_is_mostly_scalar() {
        let c = stp_pack_counts(
            &plan(6),
            KernelVariant::Generic,
            UserFunctionCost::elastic(),
        );
        assert!(
            c.scalar_fraction() > 0.6,
            "generic scalar fraction {}",
            c.scalar_fraction()
        );
    }

    #[test]
    fn log_and_splitck_scalar_share_near_ten_percent() {
        // Paper Sec. VI-A: "still close to 10 % of the FLOPs, mostly coming
        // from the user functions, are performed using scalar instructions".
        for v in [KernelVariant::LoG, KernelVariant::SplitCk] {
            for n in [6, 8, 10] {
                let c = stp_pack_counts(&plan(n), v, UserFunctionCost::elastic());
                let s = c.scalar_fraction();
                assert!(s > 0.02 && s < 0.25, "{v:?} n={n}: scalar {s}");
            }
        }
    }

    #[test]
    fn aosoa_scalar_share_under_five_percent() {
        // Paper: "down to 2-4 %, close to full vectorization".
        for n in [6, 8, 10, 11] {
            let c = stp_pack_counts(
                &plan(n),
                KernelVariant::AoSoASplitCk,
                UserFunctionCost::elastic(),
            );
            let s = c.scalar_fraction();
            assert!(s < 0.05, "n={n}: scalar {s}");
        }
    }

    #[test]
    fn full_step_aosoa_scalar_share_in_paper_band() {
        // Whole application (predictor + corrector + Riemann): the AoSoA
        // configuration retains a small scalar residual (paper: 2–4 %; our
        // engine's scalar share shrinks faster with order because the
        // predictor flops grow ~N⁵ against the corrector's ~N⁴).
        for n in [6, 8, 11] {
            let c = full_step_pack_counts(
                &plan(n),
                KernelVariant::AoSoASplitCk,
                UserFunctionCost::elastic(),
            );
            let s = c.scalar_fraction();
            assert!((0.001..0.05).contains(&s), "n={n}: scalar {s}");
        }
    }

    #[test]
    fn corrector_counts_positive_and_variant_sensitive() {
        let p = plan(6);
        let cost = UserFunctionCost::elastic();
        let gen = corrector_pack_counts(&p, KernelVariant::Generic, cost);
        let opt = corrector_pack_counts(&p, KernelVariant::SplitCk, cost);
        assert!(gen.total() > 0 && opt.total() > 0);
        assert!(gen.scalar_fraction() > opt.scalar_fraction());
    }

    #[test]
    fn avx2_width_shifts_mix_to_256() {
        let p = StpPlan::new(StpConfig::new(8, 21).with_width(Isa::Avx2), [1.0; 3]);
        let c = stp_pack_counts(&p, KernelVariant::SplitCk, UserFunctionCost::elastic());
        let f = c.fractions();
        assert_eq!(f[3], 0.0, "no 512-bit packs on an AVX2 plan");
        assert!(f[2] > 0.7, "256-bit share {}", f[2]);
    }

    #[test]
    fn useful_flops_grow_with_order() {
        let cost = UserFunctionCost::elastic();
        let f6 = stp_useful_flops(&plan(6), cost);
        let f11 = stp_useful_flops(&plan(11), cost);
        // Leading term 6 N⁵ m (+ user functions): strictly increasing and
        // superlinear.
        assert!(f11 > f6 * 10);
    }

    #[test]
    fn useful_flops_variant_independent_by_construction() {
        // The function takes no variant argument — document that it is the
        // common numerator for all four variants at a given configuration.
        let cost = UserFunctionCost::elastic();
        let f = stp_useful_flops(&plan(7), cost);
        assert!(f > 0);
    }
}
