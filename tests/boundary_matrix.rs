//! Boundary-condition coverage matrix: for every PDE system, periodic
//! and reflective (wall) boundaries through the **once-per-face graph
//! driver** must conserve — or correctly reflect — the system's
//! invariants.
//!
//! The discrete scheme is conservative: summing the corrector update
//! over all cells telescopes the interior `F*` contributions away
//! (each face is solved once and applied with opposite signs to its two
//! cells), so the mesh integral of an evolved quantity can only change
//! through domain-boundary fluxes. That gives exact machine-precision
//! invariants:
//!
//! * **periodic** — every face is interior: every *flux-form* evolved
//!   quantity's integral is conserved to round-off. Rows updated through
//!   the non-conservative product (the SWE velocities) are exempt: the
//!   NCP volume term does not telescope, so their integrals move even
//!   with no boundary at all;
//! * **reflective** — the wall `F*` vanishes exactly for the rows whose
//!   flux is odd under the ghost reflection (the Rusanov average of
//!   `±F` is zero and the dissipation term sees no jump): pressure for
//!   the rigid acoustic wall, elevation for the shallow-water wall,
//!   momentum for the elastic free surface, the magnetic field for the
//!   PEC wall — those rows are conserved while the others are not;
//! * **outflow** (advection has no meaningful reflection; its default
//!   ghost is zero-gradient) — the Rusanov solve against a quiescent
//!   exterior only ever removes content: the L2 norm must not grow.
//!
//! The initial data is a broad off-centre Gaussian whose tails reach the
//! walls, so the boundary fluxes are genuinely exercised from the first
//! step (and the non-conserved rows visibly drift, keeping the test
//! non-vacuous).

use aderdg::core::{Engine, EngineConfig, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{
    acoustic, elastic, maxwell, swe, Acoustic, AdvectionSystem, Elastic, LinearPde, LinearizedSwe,
    Material, Maxwell,
};

/// A broad Gaussian bump, off-centre so no symmetry hides drift.
fn bump(x: [f64; 3]) -> f64 {
    let c = [0.35, 0.42, 0.55];
    let r2: f64 = (0..3).map(|d| (x[d] - c[d]) * (x[d] - c[d])).sum();
    (-r2 / (2.0 * 0.22 * 0.22)).exp()
}

/// Runs `steps` CFL steps of a 3³ order-3 sharded engine and returns
/// (initial integrals, final integrals, initial L2 norm, final L2 norm).
fn run<P: LinearPde>(
    pde: P,
    boundary: BoundaryKind,
    init: impl Fn([f64; 3], &mut [f64]) + Sync,
) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let mesh = StructuredMesh::new([3, 3, 3], [0.0; 3], [1.0; 3], [boundary; 3]);
    let config = EngineConfig::new(3);
    let mut engine = Engine::new(mesh, pde, config);
    engine.set_initial(init);
    let i0 = engine.integrals();
    let n0 = engine.l2_norm();
    for _ in 0..6 {
        let dt = engine.max_dt();
        engine.step(dt);
    }
    (i0, engine.integrals(), n0, engine.l2_norm())
}

/// Runs the same matrix row under `stepping = lts` on a [4, 3, 3] mesh —
/// the caller's `init` layers the material so the left half of the
/// domain is faster, the per-cell stable dt splits 2:1, and a cluster
/// boundary sits in the domain interior. The conservation telescoping
/// must survive it: at a cadence-mismatched face the two fine-window
/// `F*` are accumulated and the coarse cell applies their sum, so the
/// face contribution still cancels exactly between its two cells.
/// Asserts multi-level clustering actually happened (a single level
/// would degenerate to the global path and test nothing new).
fn run_lts<P: LinearPde>(
    pde: P,
    boundary: BoundaryKind,
    init: impl Fn([f64; 3], &mut [f64]) + Sync,
) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let mesh = StructuredMesh::new([4, 3, 3], [0.0; 3], [1.0; 3], [boundary; 3]);
    let config = EngineConfig::new(3).with_stepping(SteppingMode::Lts);
    let mut engine = Engine::new(mesh, pde, config);
    engine.set_initial(init);
    let i0 = engine.integrals();
    let n0 = engine.l2_norm();
    for _ in 0..6 {
        let dt = engine.max_dt();
        engine.step(dt);
    }
    assert!(
        engine.lts_clocks().len() >= 2,
        "layered medium must produce multi-level clustering"
    );
    (i0, engine.integrals(), n0, engine.l2_norm())
}

/// Round-off budget for an exactly conserved integral over 6 steps.
const EXACT: f64 = 1e-12;

/// Asserts the matrix row: `conserved` indices keep their integral to
/// round-off; at least one other evolved row drifts measurably (the
/// boundary is actually doing something); the norm never grows when it
/// is an energy (`energy_norm`) and at least stays bounded otherwise.
fn check(
    label: &str,
    (i0, i1, n0, n1): (Vec<f64>, Vec<f64>, f64, f64),
    conserved: &[usize],
    expect_drift: bool,
    energy_norm: bool,
) {
    let scale = n0.max(1.0);
    for &s in conserved {
        let d = (i1[s] - i0[s]).abs();
        assert!(
            d <= EXACT * scale,
            "{label}: quantity {s} must be conserved, drifted by {d:.3e}"
        );
    }
    if expect_drift {
        let max_other = (0..i0.len())
            .filter(|s| !conserved.contains(s))
            .map(|s| (i1[s] - i0[s]).abs())
            .fold(0.0, f64::max);
        assert!(
            max_other > 1e-9 * scale,
            "{label}: no non-conserved quantity moved ({max_other:.3e}) — vacuous test"
        );
    }
    if energy_norm {
        // Unit impedance: the plain L2 norm is the energy, and Rusanov
        // only dissipates it.
        assert!(
            n1 <= n0 * (1.0 + 1e-12),
            "{label}: L2 norm grew ({n0} -> {n1})"
        );
    } else {
        // The L2 norm is not an energy here (wave speed ≠ 1 converts
        // between quantities at different weights); require boundedness.
        assert!(n1 <= n0 * 10.0, "{label}: L2 norm blew up ({n0} -> {n1})");
    }
}

#[test]
fn acoustic_periodic_conserves_every_quantity() {
    let r = run(Acoustic, BoundaryKind::Periodic, |x, q| {
        q.fill(0.0);
        q[acoustic::P] = bump(x);
        Acoustic::set_params(q, 1.0, 1.0);
    });
    check("acoustic periodic", r, &[0, 1, 2, 3], false, true);
}

#[test]
fn acoustic_rigid_wall_conserves_pressure_only() {
    let r = run(Acoustic, BoundaryKind::Reflective, |x, q| {
        q.fill(0.0);
        q[acoustic::P] = bump(x);
        Acoustic::set_params(q, 1.0, 1.0);
    });
    // The rigid wall flips the normal velocity in the ghost: the wall
    // flux of p (= -K u_n averaged with its negation) vanishes exactly,
    // while the velocity rows feel the wall pressure.
    check("acoustic reflective", r, &[acoustic::P], true, true);
}

#[test]
fn acoustic_layered_lts_periodic_conserves_every_quantity() {
    // 4:1 bulk contrast (2:1 sound speed) at unit density: every row is
    // flux-form (the u-flux is ∇p at ρ = 1), so all four integrals must
    // telescope to round-off across the cluster boundary too.
    let r = run_lts(Acoustic, BoundaryKind::Periodic, |x, q| {
        q.fill(0.0);
        q[acoustic::P] = bump(x);
        let bulk = if x[0] < 0.5 { 4.0 } else { 1.0 };
        Acoustic::set_params(q, 1.0, bulk);
    });
    // bulk ≠ 1 breaks unit impedance, so the L2 norm is no longer the
    // energy — require boundedness, not monotonicity.
    check(
        "acoustic layered lts periodic",
        r,
        &[0, 1, 2, 3],
        false,
        false,
    );
}

#[test]
fn acoustic_layered_lts_rigid_wall_conserves_pressure_only() {
    let r = run_lts(Acoustic, BoundaryKind::Reflective, |x, q| {
        q.fill(0.0);
        q[acoustic::P] = bump(x);
        let bulk = if x[0] < 0.5 { 4.0 } else { 1.0 };
        Acoustic::set_params(q, 1.0, bulk);
    });
    check(
        "acoustic layered lts reflective",
        r,
        &[acoustic::P],
        true,
        false,
    );
}

#[test]
fn swe_layered_lts_conserves_the_flux_form_elevation() {
    // Depth 4 vs 1 at g = 1: gravity-wave speeds 2:1. Only η is
    // flux-form (see the periodic SWE row above) and its integral must
    // hold to round-off across the cluster boundary, under both
    // boundary kinds.
    for boundary in [BoundaryKind::Periodic, BoundaryKind::Reflective] {
        let r = run_lts(LinearizedSwe, boundary, |x, q| {
            q.fill(0.0);
            q[swe::ETA] = bump(x);
            let depth = if x[0] < 0.5 { 4.0 } else { 1.0 };
            LinearizedSwe::set_params(q, depth, 1.0);
        });
        check(
            &format!("swe layered lts {boundary:?}"),
            r,
            &[swe::ETA],
            true,
            false,
        );
    }
}

#[test]
fn advection_periodic_conserves_mass_and_outflow_dissipates() {
    let pde = AdvectionSystem::new(2, [0.7, 0.4, 0.2]);
    let r = run(pde, BoundaryKind::Periodic, |x, q| {
        q[0] = bump(x);
        q[1] = 0.5 * bump(x);
    });
    check("advection periodic", r, &[0, 1], false, true);

    // Advection has no meaningful reflection (default zero-gradient
    // ghost); the outflow invariant is dissipation: content only leaves.
    let pde = AdvectionSystem::new(2, [0.7, 0.4, 0.2]);
    let (i0, i1, n0, n1) = run(pde, BoundaryKind::Outflow, |x, q| {
        q[0] = bump(x);
        q[1] = 0.5 * bump(x);
    });
    assert!(n1 < n0, "outflow must dissipate ({n0} -> {n1})");
    assert!(
        (i1[0] - i0[0]).abs() > 1e-9,
        "outflow boundary never touched: vacuous"
    );
}

#[test]
fn elastic_periodic_conserves_every_quantity() {
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.6,
    };
    let r = run(Elastic, BoundaryKind::Periodic, |x, q| {
        q.fill(0.0);
        q[elastic::VX] = bump(x);
        q[elastic::SXY] = 0.3 * bump(x);
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    check(
        "elastic periodic",
        r,
        &(0..9).collect::<Vec<_>>(),
        false,
        true,
    );
}

#[test]
fn elastic_free_surface_conserves_momentum_only() {
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.6,
    };
    let r = run(Elastic, BoundaryKind::Reflective, |x, q| {
        q.fill(0.0);
        q[elastic::VX] = bump(x);
        q[elastic::SXY] = 0.3 * bump(x);
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    // The free surface negates the traction rows in the ghost, so the
    // velocity (momentum) fluxes — which read exactly those rows —
    // average to zero at the wall: zero-traction means no momentum
    // leaves. The stress rows feel the mirrored velocity instead.
    check(
        "elastic reflective",
        r,
        &[elastic::VX, elastic::VY, elastic::VZ],
        true,
        true,
    );
}

#[test]
fn maxwell_periodic_conserves_every_quantity() {
    let r = run(Maxwell, BoundaryKind::Periodic, |x, q| {
        q.fill(0.0);
        q[maxwell::HZ] = bump(x);
        q[maxwell::EX] = 0.4 * bump(x);
        Maxwell::set_params(q, 1.0, 1.0);
    });
    check("maxwell periodic", r, &[0, 1, 2, 3, 4, 5], false, true);
}

#[test]
fn maxwell_pec_wall_conserves_magnetic_flux_only() {
    let r = run(Maxwell, BoundaryKind::Reflective, |x, q| {
        q.fill(0.0);
        q[maxwell::HZ] = bump(x);
        q[maxwell::EX] = 0.4 * bump(x);
        Maxwell::set_params(q, 1.0, 1.0);
    });
    // The PEC ghost flips the tangential E components; every H-row flux
    // reads exactly a tangential E, so the wall flux of H averages to
    // zero (and H itself has no jump): ∫H is conserved while the E rows
    // feel the wall currents.
    check(
        "maxwell reflective",
        r,
        &[maxwell::HX, maxwell::HY, maxwell::HZ],
        true,
        true,
    );
}

#[test]
fn swe_periodic_conserves_the_flux_form_elevation() {
    let r = run(LinearizedSwe, BoundaryKind::Periodic, |x, q| {
        q.fill(0.0);
        q[swe::ETA] = bump(x);
        LinearizedSwe::set_params(q, 1.0, 9.81);
    });
    // Only η is flux-form; the velocities evolve through the
    // non-conservative product −g ∇η, whose volume term does not
    // telescope — their integrals legitimately drift even with periodic
    // boundaries (expect_drift asserts exactly that).
    check("swe periodic", r, &[swe::ETA], true, false);
}

#[test]
fn swe_wall_conserves_water_volume_only() {
    let r = run(LinearizedSwe, BoundaryKind::Reflective, |x, q| {
        q.fill(0.0);
        q[swe::ETA] = bump(x);
        LinearizedSwe::set_params(q, 1.0, 9.81);
    });
    // The wall flips the normal velocity: the elevation flux −H u_n
    // averages to zero at the wall, so no water volume crosses it; the
    // velocity rows feel the wall through the g ∇η non-conservative
    // product and the Rusanov dissipation.
    check("swe reflective", r, &[swe::ETA], true, false);
}
