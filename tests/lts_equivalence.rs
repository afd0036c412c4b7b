//! Local time stepping vs global stepping.
//!
//! Two contracts from `docs/LTS.md`:
//!
//! 1. **Global is the one-cluster case** — on a dt-homogeneous problem
//!    every cell lands in one cluster and `stepping = lts` runs the very
//!    driver `stepping = global` runs, over the same one-level plan. The
//!    only code that still differs is where the plan and the dt come
//!    from: the lazily built, state-derived clustering vs the flat plan
//!    of `Engine::new`, and the cached macro dt (min over per-cell dt)
//!    vs the per-step reduction (dt of the max rate). Both must agree
//!    **bit-for-bit**, for every registered kernel (the kernel picks the
//!    block size, hence the automatic shard size).
//!
//! 2. **Two-cluster accuracy** — on a 2:1 wave-speed contrast the slow
//!    cells step at `2·dt_base`, composing the coarse predictor's
//!    time-integrated traces into per-sub-window fluxes by differencing
//!    (`window 1 = half run, window 2 = full − half`). Relative to a
//!    global run at the fine dt that is an O(dt²) coupling difference
//!    (see [`two_cluster_diff`]), so the evolved state must match the
//!    fine-dt global run to ≤ 1e-10 at small dt *and* the difference
//!    must shrink at second order under dt refinement — on acoustic,
//!    shallow-water and (whose wavespeed divides by the parameter rows
//!    the coarse trace must carry) Maxwell physics.

use aderdg::core::{Engine, EngineConfig, KernelRegistry, PipelineMode, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{Acoustic, LinearizedSwe, Maxwell, PointSource, SourceTimeFunction};

/// A small mesh exercising interior, periodic-wrap, outflow and
/// reflective faces at once.
fn mesh() -> StructuredMesh {
    StructuredMesh::new(
        [3, 3, 2],
        [0.0; 3],
        [1.0; 3],
        [
            BoundaryKind::Periodic,
            BoundaryKind::Outflow,
            BoundaryKind::Reflective,
        ],
    )
}

/// Runs three steps of a seeded acoustic problem with a point source on a
/// dt-homogeneous medium (uniform material ⇒ uniform per-cell CFL dt ⇒ a
/// single LTS cluster) and returns the plan's level count, `max_dt` of the
/// initial state and the evolved state, bit-exact.
fn run_homogeneous(config: EngineConfig) -> (usize, u64, Vec<u64>) {
    let mut engine = Engine::new(mesh(), Acoustic, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 5.1 + x[1] * 2.7 - x[2] * 3.9).sin();
        q[0] = 0.2 * s;
        q[1] = 0.1 * (x[1] * 4.0).cos();
        q[2] = -0.05 * s;
        q[3] = 0.03 * s * s;
        // Uniform material: the acoustic wavespeed depends only on the
        // parameters, so every cell gets the identical stable dt.
        Acoustic::set_params(q, 1.0, 1.0);
    });
    engine.add_point_source(PointSource {
        position: [0.45, 0.52, 0.3],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.05,
            frequency: 8.0,
        },
    });
    let max_dt = engine.max_dt();
    let dt = max_dt * 0.6;
    assert!(dt.is_finite() && dt > 0.0);
    for _ in 0..3 {
        engine.step(dt);
    }
    let state = (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect();
    (engine.lts_plan().num_levels(), max_dt.to_bits(), state)
}

#[test]
fn degenerate_lts_bitwise_matches_global_for_every_kernel() {
    for name in KernelRegistry::global().names() {
        let base = EngineConfig::new(3)
            .with_kernel_name(name)
            .with_pipeline(PipelineMode::Sharded);
        let (_, global_dt, global) = run_homogeneous(base.with_stepping(SteppingMode::Global));
        assert!(
            global.iter().any(|&b| b != 0),
            "{name}: the run must actually evolve data"
        );
        let (levels, lts_dt, lts) = run_homogeneous(base.with_stepping(SteppingMode::Lts));
        assert_eq!(levels, 1, "{name}: a uniform medium is one cluster");
        assert_eq!(
            lts_dt, global_dt,
            "{name}: the one-cluster macro dt must be the global dt bitwise"
        );
        let diffs = lts.iter().zip(&global).filter(|(a, b)| a != b).count();
        assert_eq!(
            diffs, 0,
            "{name}: {diffs} doubles differ between one-cluster LTS and \
             the global run"
        );
    }
}

/// Max relative elementwise difference, scaled by the largest magnitude.
/// Both states must be finite: `f64::max` drops NaN, so a NaN entry would
/// otherwise vanish from the fold.
fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let bad = a.iter().chain(b).filter(|v| !v.is_finite()).count();
    assert_eq!(bad, 0, "{bad} non-finite state entries");
    let scale = a
        .iter()
        .chain(b.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-300);
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
        / scale
}

/// Runs `steps` macro steps of a layered two-cluster problem (2:1
/// wave-speed contrast along x) under LTS at `dt_factor` of the stable
/// macro dt, and the same physical span at the fine dt under global
/// stepping; returns the max relative state difference.
///
/// The two runs are *not* the same scheme: the coarse cells' window-2
/// face traces extrapolate the macro-step-start predictor, while the
/// fine-dt global run re-predicts mid-window from a state that already
/// absorbed the first half-window's corrector fluxes. Over a fixed step
/// count that inter-scheme coupling difference is O(dt²) — it is the
/// standard predictor-based-LTS approximation, and it vanishes under
/// refinement, which the convergence-order test below pins.
fn two_cluster_diff<P, F>(pde: impl Fn() -> P, init: F, steps: usize, dt_factor: f64) -> f64
where
    P: aderdg::pde::LinearPde,
    F: Fn([f64; 3], &mut [f64]) + Copy + Sync,
{
    let mesh = || StructuredMesh::new([4, 2, 2], [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]);
    let config = EngineConfig::new(5).with_pipeline(PipelineMode::Sharded);

    let mut lts = Engine::new(mesh(), pde(), config.with_stepping(SteppingMode::Lts));
    lts.set_initial(init);
    // The 2:1 speed contrast must actually produce two clusters: the
    // macro cycle has 2 slots, the fine clock sub-steps twice per cycle.
    let dt_macro = lts.max_dt() * dt_factor;
    assert_eq!(lts.lts_clocks().len(), 0, "clocks allocate on first step");
    for _ in 0..steps {
        lts.step(dt_macro);
    }
    assert_eq!(lts.lts_clocks().len(), 2, "expected exactly two dt levels");
    assert_eq!(lts.lts_clocks()[0].1, 2 * steps as u64);
    assert_eq!(lts.lts_clocks()[1].1, steps as u64);

    let mut global = Engine::new(mesh(), pde(), config.with_stepping(SteppingMode::Global));
    global.set_initial(init);
    for _ in 0..2 * steps {
        global.step(dt_macro / 2.0);
    }
    let state = |e: &Engine<P>| -> Vec<f64> {
        (0..e.mesh.num_cells())
            .flat_map(|c| e.cell_state(c).iter().copied())
            .collect()
    };
    max_rel_diff(&state(&lts), &state(&global))
}

#[test]
fn two_cluster_lts_matches_fine_global_run_acoustic() {
    let init = |x: [f64; 3], q: &mut [f64]| {
        q.fill(0.0);
        let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
        q[aderdg::pde::acoustic::P] = (-r2 / (2.0 * 0.15 * 0.15)).exp();
        // bulk 4 vs 1 at unit density: sound speed 2 vs 1.
        let bulk = if x[0] < 0.5 { 4.0 } else { 1.0 };
        Acoustic::set_params(q, 1.0, bulk);
    };
    let diff = two_cluster_diff(|| Acoustic, init, 4, 2.5e-4);
    assert!(
        diff <= 1e-10,
        "acoustic: two-cluster LTS differs from the fine-dt global run by \
         {diff:.3e} (> 1e-10)"
    );
    // The coupling difference must be second order in dt: halving the
    // step shrinks it ~4× (measured at a dt where it dominates
    // round-off). A wrong sub-window composition — missing differencing,
    // wrong window sign — degrades this to O(dt) or O(1) and fails here.
    let coarse = two_cluster_diff(|| Acoustic, init, 4, 0.05);
    let fine = two_cluster_diff(|| Acoustic, init, 4, 0.025);
    let rate = coarse / fine;
    assert!(
        (3.0..=5.5).contains(&rate),
        "acoustic: LTS coupling difference not second order: \
         {coarse:.3e} → {fine:.3e} under dt halving (ratio {rate:.2})"
    );
}

#[test]
fn two_cluster_lts_matches_fine_global_run_swe() {
    let init = |x: [f64; 3], q: &mut [f64]| {
        q.fill(0.0);
        // A smoothed dam-break elevation step over a stepped bottom:
        // depth 4 vs 1 at g = 1 gives gravity-wave speeds 2 vs 1.
        q[aderdg::pde::swe::ETA] = 0.1 * (1.0 + ((0.55 - x[0]) / 0.1).tanh()) / 2.0;
        let depth = if x[0] < 0.5 { 4.0 } else { 1.0 };
        LinearizedSwe::set_params(q, depth, 1.0);
    };
    let diff = two_cluster_diff(|| LinearizedSwe, init, 4, 2.5e-4);
    assert!(
        diff <= 1e-10,
        "swe: two-cluster LTS differs from the fine-dt global run by \
         {diff:.3e} (> 1e-10)"
    );
}

#[test]
fn two_cluster_lts_matches_fine_global_run_maxwell() {
    // Maxwell's wavespeed `1/sqrt(εμ)` divides by the parameter rows, so
    // a coarse second-sub-window trace whose parameters were differenced
    // to zero (instead of carried) yields an infinite Rusanov speed and a
    // non-finite state.
    let init = |x: [f64; 3], q: &mut [f64]| {
        q.fill(0.0);
        let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
        q[aderdg::pde::maxwell::EY] = (-r2 / (2.0 * 0.15 * 0.15)).exp();
        // ε = 1/4 vs 1 at μ = 1: light speed 2 vs 1.
        let epsilon = if x[0] < 0.5 { 0.25 } else { 1.0 };
        Maxwell::set_params(q, epsilon, 1.0);
    };
    let diff = two_cluster_diff(|| Maxwell, init, 1, 2.5e-4);
    assert!(
        diff <= 1e-9,
        "maxwell: two-cluster LTS differs from the fine-dt global run by \
         {diff:.3e} (> 1e-9)"
    );
}
