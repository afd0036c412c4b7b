//! The once-per-face contract, measured: the sharded pipeline performs
//! `interior + boundary` Riemann solves per step (eq. 5 — one per face),
//! where the cell-centric barrier path performs `6 · cells` (every
//! interior face twice).
//!
//! Uses the debug-build flux-solve counter in `aderdg::core::riemann`;
//! the counter is process-global, so all assertions live in this one
//! test function (integration-test files run as their own process).

use aderdg::core::riemann::{
    flux_solve_count, flux_solve_counting_enabled, reset_flux_solve_count,
};
use aderdg::core::{Engine, EngineConfig, PipelineMode, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::Acoustic;

fn step_solves(config: EngineConfig, mesh: StructuredMesh) -> usize {
    let mut engine = Engine::new(mesh, Acoustic, config);
    engine.set_initial(|x, q| {
        q[0] = (x[0] * 3.0 + x[1]).sin();
        q[1] = 0.1 * x[2];
        q[2] = 0.0;
        q[3] = 0.0;
        Acoustic::set_params(q, 1.0, 1.0);
    });
    let dt = engine.max_dt() * 0.5;
    engine.step(dt); // warm-up step outside the counted window
    reset_flux_solve_count();
    engine.step(dt);
    flux_solve_count()
}

#[test]
fn sharded_step_solves_each_face_exactly_once() {
    if !flux_solve_counting_enabled() {
        eprintln!("flux-solve counter disabled (release build); skipping");
        return;
    }

    // Fully periodic cube: 3·cells interior faces, no boundary. The
    // counts are a *pipeline* contract, so `stepping = global` is spelled
    // out (under LTS `pipeline` is ignored and the barrier count would
    // never materialize).
    let cells = 27;
    let barrier = step_solves(
        EngineConfig::new(3)
            .with_stepping(SteppingMode::Global)
            .with_pipeline(PipelineMode::Barrier),
        StructuredMesh::unit_cube(3),
    );
    assert_eq!(
        barrier,
        6 * cells,
        "cell-centric path: two solves per interior face"
    );
    let sharded = step_solves(
        EngineConfig::new(3)
            .with_stepping(SteppingMode::Global)
            .with_pipeline(PipelineMode::Sharded)
            .with_shard_size(4),
        StructuredMesh::unit_cube(3),
    );
    assert_eq!(
        sharded,
        3 * cells,
        "once-per-face path halves the interior solves"
    );
    // One-cluster LTS (uniform medium ⇒ one slot per macro cycle) is
    // the same driver over a lazily built plan: same count.
    let lts = step_solves(
        EngineConfig::new(3)
            .with_stepping(SteppingMode::Lts)
            .with_shard_size(4),
        StructuredMesh::unit_cube(3),
    );
    assert_eq!(lts, 3 * cells, "one-cluster LTS solves each face once");

    // Mixed boundaries: interior + boundary faces, straight from the
    // shard plan's canonical face index.
    let mesh = StructuredMesh::new(
        [3, 2, 2],
        [0.0; 3],
        [1.0; 3],
        [
            BoundaryKind::Outflow,
            BoundaryKind::Reflective,
            BoundaryKind::Periodic,
        ],
    );
    let config = EngineConfig::new(3)
        .with_stepping(SteppingMode::Global)
        .with_pipeline(PipelineMode::Sharded);
    let engine = Engine::new(mesh.clone(), Acoustic, config);
    let splan = engine
        .shard_plan()
        .expect("sharded engine has a shard plan");
    let expected = splan.num_interior_faces() + splan.num_boundary_faces();
    drop(engine);
    let sharded = step_solves(config, mesh.clone());
    assert_eq!(sharded, expected, "one solve per canonical face");
    let barrier = step_solves(config.with_pipeline(PipelineMode::Barrier), mesh);
    assert_eq!(barrier, 6 * 12, "barrier path visits every cell slot");
    assert!(sharded < barrier);
}
