//! Direct tests of the paper's quantitative claims, as reproduced by the
//! performance model (the measured counterparts live in the bench crate).

use aderdg::core::mix::{stp_pack_counts, stp_useful_flops, UserFunctionCost};
use aderdg::core::traces::steady_state_stall;
use aderdg::core::{KernelVariant, StpConfig, StpPlan};
use aderdg::perf::footprint;
use aderdg::tensor::Isa;

fn plan(order: usize, width: Isa) -> StpPlan {
    StpPlan::new(StpConfig::new(order, 21).with_width(width), [1.0; 3])
}

fn stall_fraction(variant: KernelVariant, order: usize) -> f64 {
    let p = plan(order, Isa::Avx512);
    steady_state_stall(&p, variant, UserFunctionCost::elastic(), 4).1
}

/// Figs. 4/6/10 band: every variant's modelled stall share lies in the
/// paper's observed 15–60 % window across the measured orders.
#[test]
fn claim_stall_band() {
    for variant in KernelVariant::ALL {
        for order in [4, 8, 11] {
            let s = stall_fraction(variant, order);
            assert!(
                (0.1..0.65).contains(&s),
                "{} order {order}: stall {s}",
                variant.kernel().label()
            );
        }
    }
}

/// Sec. IV-A: "for a 3D medium-sized problem (m = 25, d = 3) the 1 MB
/// limit will be exceeded as soon as N = 6".
#[test]
fn claim_l2_overflow_at_order_6() {
    assert_eq!(footprint::l2_overflow_order(25, 1024 * 1024), Some(6));
}

/// Sec. IV-B: SplitCK reduces the footprint by the time dimension and a
/// further factor 3 — at order 8 the combined reduction exceeds 4×.
#[test]
fn claim_splitck_footprint_reduction() {
    let r = footprint::splitck_reduction_factor(8, 21);
    assert!(r > 4.0, "reduction {r}");
}

/// Fig. 6 shape: SplitCK's stall ratio decreases with order; LoG's does
/// not drop below it once past the L2 capacity (order ≥ 6), nor collapse
/// with order.
#[test]
fn claim_fig6_stall_shapes() {
    let orders = [5, 6, 7, 9, 10];
    let log: Vec<f64> = orders
        .iter()
        .map(|&n| stall_fraction(KernelVariant::LoG, n))
        .collect();
    let split: Vec<f64> = orders
        .iter()
        .map(|&n| stall_fraction(KernelVariant::SplitCk, n))
        .collect();
    // Indices into `orders`: 5 → 0, 6 → 1, 9 → 3, 10 → 4.
    assert!(
        split[3] < split[0] && split[4] < split[1],
        "SplitCK stalls must decrease with order: {split:?}"
    );
    assert!(
        log[3] > split[3] && log[4] > split[4],
        "LoG must stall more than SplitCK at high order: log={log:?} split={split:?}"
    );
    assert!(
        log[1] < log[4] * 2.0 + 0.2,
        "LoG stalls must not collapse with order: {log:?}"
    );
}

/// Fig. 9 shape at order 8 (AVX-512):
/// generic mostly scalar; LoG/SplitCK ≳ 80 % packed with ~10 % scalar
/// user functions; AoSoA ≤ 5 % scalar.
#[test]
fn claim_fig9_instruction_mix_shape() {
    let cost = UserFunctionCost::elastic();
    let p = plan(8, Isa::Avx512);

    let gen = stp_pack_counts(&p, KernelVariant::Generic, cost);
    assert!(gen.scalar_fraction() > 0.5, "generic {:?}", gen.fractions());

    for v in [KernelVariant::LoG, KernelVariant::SplitCk] {
        let c = stp_pack_counts(&p, v, cost);
        let packed = 1.0 - c.scalar_fraction();
        assert!(packed > 0.8, "{v:?} packed {packed}");
        assert!(
            c.scalar_fraction() > 0.03 && c.scalar_fraction() < 0.2,
            "{v:?} scalar {}",
            c.scalar_fraction()
        );
    }

    let hybrid = stp_pack_counts(&p, KernelVariant::AoSoASplitCk, cost);
    assert!(
        hybrid.scalar_fraction() < 0.05,
        "AoSoA scalar {}",
        hybrid.scalar_fraction()
    );
}

/// Sec. V-A: on AVX-512, order 8 has no AoSoA padding overhead while
/// order 9 pads 9 → 16 (the "sweetspot" / "particularly large padding").
#[test]
fn claim_order8_sweetspot_order9_padding() {
    let p8 = plan(8, Isa::Avx512);
    let p9 = plan(9, Isa::Avx512);
    assert_eq!(p8.aosoa.n_pad(), 8);
    assert_eq!(p9.aosoa.n_pad(), 16);
}

/// The instruction-mix model under an AVX2 cap packs at 256 bits — the
/// basis of the paper's AVX2-vs-AVX-512 comparison (Fig. 4).
#[test]
fn claim_avx2_configuration_packs_256() {
    let p = plan(8, Isa::Avx2);
    let c = stp_pack_counts(&p, KernelVariant::LoG, UserFunctionCost::elastic());
    let f = c.fractions();
    assert_eq!(f[3], 0.0);
    assert!(f[2] > 0.7, "{f:?}");
}

/// Useful flops are variant-independent; padded/executed flops are not.
/// The AoSoA variant at order 9 executes notably more (padding) flops
/// than at order 8 relative to the useful count.
#[test]
fn claim_padding_overhead_order9() {
    let cost = UserFunctionCost::elastic();
    let overhead = |n: usize| {
        let p = plan(n, Isa::Avx512);
        let exec = stp_pack_counts(&p, KernelVariant::AoSoASplitCk, cost).total() as f64;
        let useful = stp_useful_flops(&p, cost) as f64;
        exec / useful
    };
    let o8 = overhead(8);
    let o9 = overhead(9);
    assert!(o9 > o8 * 1.3, "padding overhead o8={o8} o9={o9}");
}
