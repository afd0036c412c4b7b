//! Pins the sharded once-per-face pipeline to the seed cell-centric
//! barrier path: for **every registered kernel** and shard sizes
//! {1, 3, whole-mesh}, a run over a mesh with all three boundary kinds
//! and a point-source cell must agree to ≤ 1e-12 relative — the two
//! pipelines implement the same scheme, differing only in when and how
//! often each face's Riemann problem is solved. With block-aligned
//! shards they agree to the bit: the graph driver's volume update, fused
//! into its Predict task, is checked against the barrier path's unfused
//! one.

use aderdg::core::{Engine, EngineConfig, KernelRegistry, PipelineMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{swe, Acoustic, LinearPde, LinearizedSwe, PointSource, SourceTimeFunction};

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

/// Runs three steps of `engine` and returns the full evolved state.
fn evolve<P: LinearPde>(mut engine: Engine<P>) -> Vec<f64> {
    let dt = engine.max_dt() * 0.6;
    for _ in 0..3 {
        engine.step(dt);
    }
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().copied())
        .collect()
}

/// A seeded acoustic problem with a point source.
fn run(config: EngineConfig) -> Vec<f64> {
    let mut engine = Engine::new(mesh(), Acoustic, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 5.1 + x[1] * 2.7 - x[2] * 3.9).sin();
        q[0] = 0.2 * s;
        q[1] = 0.1 * (x[1] * 4.0).cos();
        q[2] = -0.05 * s;
        q[3] = 0.03 * s * s;
        Acoustic::set_params(q, 1.0 + 0.3 * x[0], 1.0 + 0.1 * x[2]);
    });
    engine.add_point_source(PointSource {
        position: [0.45, 0.52, 0.3],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.05,
            frequency: 8.0,
        },
    });
    evolve(engine)
}

/// A seeded shallow-water problem over varying depth: its velocity rows
/// are driven by the non-conservative product, so the volume update's
/// ncp branch runs on both pipelines.
fn run_swe(config: EngineConfig) -> Vec<f64> {
    let mut engine = Engine::new(mesh(), LinearizedSwe, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 4.3 - x[1] * 3.1 + x[2] * 2.2).sin();
        q[swe::ETA] = 0.1 * s;
        q[swe::U] = 0.05 * (x[2] * 3.0).cos();
        q[swe::U + 1] = -0.02 * s;
        q[swe::U + 2] = 0.01 * s * s;
        LinearizedSwe::set_params(q, 1.0 + 0.4 * x[0] * x[1], 1.0);
    });
    evolve(engine)
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
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

#[test]
fn sharded_matches_barrier_for_every_kernel_and_shard_size() {
    let cells = mesh().num_cells();
    for name in KernelRegistry::global().names() {
        let base = EngineConfig::new(3)
            .with_kernel_name(name)
            .with_pipeline(PipelineMode::Barrier);
        let reference = run(base);
        assert!(
            reference.iter().any(|&v| v != 0.0),
            "{name}: the barrier run must evolve data"
        );
        for shard_size in [1, 3, cells] {
            let sharded = run(EngineConfig::new(3)
                .with_kernel_name(name)
                .with_pipeline(PipelineMode::Sharded)
                .with_shard_size(shard_size));
            let diff = max_rel_diff(&reference, &sharded);
            assert!(
                diff <= 1e-12,
                "{name}, shard_size={shard_size}: max rel diff {diff:e}"
            );
        }
    }
}

#[test]
fn auto_shard_size_matches_barrier_bitwise_for_every_kernel() {
    // With auto shard sizing the shard boundaries align to predictor
    // blocks, so each kernel sees the same blocks on both pipelines and
    // the graph driver — volume update in place inside Predict, face
    // lifts in Apply — must agree with the barrier path's unfused
    // corrector to the last bit, not just to tolerance.
    type Case = (&'static str, fn(EngineConfig) -> Vec<f64>);
    let cases: [Case; 2] = [("acoustic + point source", run), ("swe, ncp", run_swe)];
    for name in KernelRegistry::global().names() {
        for (label, run) in cases {
            let config = EngineConfig::new(3).with_kernel_name(name);
            let reference = run(config.with_pipeline(PipelineMode::Barrier));
            assert!(
                reference.iter().any(|&v| v != 0.0),
                "{name}, {label}: the barrier run must evolve data"
            );
            let sharded = run(config.with_pipeline(PipelineMode::Sharded));
            let diffs = reference
                .iter()
                .zip(&sharded)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(
                diffs, 0,
                "{name}, {label}: {diffs} doubles differ between the pipelines"
            );
        }
    }
}
