//! Convergence-order golden test: the ADER-DG scheme attains its design
//! order on mesh refinement.
//!
//! Promotes the `examples/convergence.rs` study into asserted tier-1
//! coverage: multi-component linear advection of a smooth sine profile on
//! successively refined periodic meshes, orders 2–5, with the observed L2
//! rate required to reach the design order (minus a 0.8 asymptotic
//! margin). Low orders need finer meshes to reach the asymptotic regime;
//! high orders hit round-off there — so each order measures its rate on
//! the appropriate refinement step, exactly as in the example.

use aderdg::core::{Engine, EngineConfig, KernelVariant, SteppingMode};
use aderdg::mesh::StructuredMesh;
use aderdg::pde::{
    AdvectedSine, AdvectionSystem, ExactSolution, RotatingAdvection, RotatingGaussian,
};

fn l2_error(order: usize, cells: usize) -> f64 {
    let velocity = [0.7, 0.4, 0.2];
    let pde = AdvectionSystem::new(3, velocity);
    let exact = AdvectedSine {
        n_vars: 3,
        velocity,
        wave: [1.0, 0.0, 0.0],
    };
    let mesh = StructuredMesh::unit_cube(cells);
    let mut engine = Engine::new(
        mesh,
        pde,
        EngineConfig::new(order).with_kernel(KernelVariant::SplitCk.kernel()),
    );
    engine.set_initial(|x, q| exact.evaluate(x, 0.0, q));
    engine.run_until(0.1);
    engine.l2_error(&exact)
}

/// Observed rate `log2(e_coarse / e_fine)` for one halving of the mesh
/// width at the refinement step appropriate for the order.
fn observed_rate(order: usize) -> (f64, f64, f64) {
    let e2 = l2_error(order, 2);
    let e4 = l2_error(order, 4);
    if order <= 3 {
        let e8 = l2_error(order, 8);
        (e4, e8, (e4 / e8).log2())
    } else {
        (e2, e4, (e2 / e4).log2())
    }
}

/// L2 error of the solid-body rotation patch under the given stepping
/// mode. The velocity field `v = ω ẑ × (x − c)` makes the per-cell
/// stable dt genuinely heterogeneous (slow near the centre, fast at the
/// corners), so under LTS the engine buckets the mesh into several dt
/// levels and the sub-window face coupling is exercised for real — the
/// returned level count asserts that.
fn rotation_l2_error(order: usize, cells: usize, stepping: SteppingMode) -> (f64, usize) {
    let omega = std::f64::consts::FRAC_PI_2;
    let center = [0.5, 0.5, 0.5];
    let pde = RotatingAdvection { omega, center };
    let exact = RotatingGaussian {
        omega,
        center,
        start: [0.7, 0.5, 0.5],
        sigma: 0.1,
        amplitude: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(cells);
    let mut engine = Engine::new(
        mesh,
        pde,
        EngineConfig::new(order)
            .with_kernel(KernelVariant::SplitCk.kernel())
            .with_stepping(stepping),
    );
    engine.set_initial(|x, q| {
        exact.evaluate(x, 0.0, q);
        RotatingAdvection::set_params(q, omega, center, x);
    });
    engine.run_until(0.2);
    (engine.l2_error(&exact), engine.lts_clocks().len())
}

#[test]
fn lts_converges_at_design_rate_on_heterogeneous_dt() {
    for order in [3usize, 4] {
        let mut errs = [0.0f64; 2];
        for (i, cells) in [4usize, 8].into_iter().enumerate() {
            let (eg, _) = rotation_l2_error(order, cells, SteppingMode::Global);
            let (el, levels) = rotation_l2_error(order, cells, SteppingMode::Lts);
            // The workload must actually cluster — a single level would
            // degenerate to the global path and test nothing new.
            assert!(
                levels >= 2,
                "order {order}, {cells}³: expected multi-level clustering, got {levels} levels"
            );
            // LTS must not degrade accuracy: whatever error the global
            // scheme reaches on this grid (the workload floors at the
            // outflow tails before the dt discretization matters), the
            // clustered run must match it closely.
            assert!(
                (el - eg).abs() <= 0.05 * eg,
                "order {order}, {cells}³: LTS error {el:.4e} deviates from global {eg:.4e}"
            );
            errs[i] = el;
        }
        // And the LTS errors themselves must refine at the design rate
        // wherever the workload supports it (order 4 saturates on the
        // outflow-tail floor at 8³ — the global-match assertion above
        // carries that case, the rate margin here reflects it).
        let rate = (errs[0] / errs[1]).log2();
        let margin = if order == 3 { 0.8 } else { 1.5 };
        assert!(
            rate > order as f64 - margin,
            "order {order}: observed LTS rate {rate:.2} below design order"
        );
    }
}

#[test]
fn orders_2_and_3_converge_at_design_rate() {
    for order in [2usize, 3] {
        let (coarse, fine, rate) = observed_rate(order);
        assert!(
            fine < coarse,
            "order {order}: refinement must reduce the error ({coarse} -> {fine})"
        );
        assert!(
            rate > order as f64 - 0.8,
            "order {order}: observed rate {rate:.2} below design order"
        );
    }
}

#[test]
fn orders_4_and_5_converge_at_design_rate() {
    for order in [4usize, 5] {
        let (coarse, fine, rate) = observed_rate(order);
        assert!(
            fine < coarse,
            "order {order}: refinement must reduce the error ({coarse} -> {fine})"
        );
        assert!(
            rate > order as f64 - 0.8,
            "order {order}: observed rate {rate:.2} below design order"
        );
    }
}
