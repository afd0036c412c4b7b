//! Pins the sharded once-per-face pipeline to the seed cell-centric
//! barrier path: for **every registered kernel**, a run over a mesh with
//! all three boundary kinds and a point-source cell (and a shallow-water
//! run, whose ncp branch the volume update takes) must agree **to the
//! bit** — the two pipelines implement the same scheme, differing only in
//! when and how often each face's Riemann problem is solved. The shard
//! size is derived from the block size ([`auto_shard_size`]), so shard
//! boundaries never split a predictor block and both pipelines run the
//! same blocks; the graph driver's volume update, fused into its Predict
//! task, is checked against the barrier path's unfused one.
//!
//! [`auto_shard_size`]: aderdg::core::auto_shard_size

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

/// Counts the doubles whose bits differ between two states.
fn bit_diffs(a: &[f64], b: &[f64]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

type Case = (&'static str, fn(EngineConfig) -> Vec<f64>);
const CASES: [Case; 2] = [("acoustic + point source", run), ("swe, ncp", run_swe)];

/// Runs `config` on both pipelines for every case and asserts the
/// states agree to the bit.
fn assert_pipelines_agree(config: EngineConfig, what: &str) {
    for (label, run) in CASES {
        let reference = run(config.with_pipeline(PipelineMode::Barrier));
        assert!(
            reference.iter().all(|v| v.is_finite()) && reference.iter().any(|&v| v != 0.0),
            "{what}, {label}: the barrier run must evolve finite data"
        );
        let sharded = run(config.with_pipeline(PipelineMode::Sharded));
        let diffs = bit_diffs(&reference, &sharded);
        assert_eq!(
            diffs, 0,
            "{what}, {label}: {diffs} doubles differ between the pipelines"
        );
    }
}

#[test]
fn sharded_matches_barrier_for_every_kernel_and_shard_size() {
    // One shard per block on this 18-cell mesh: the block sizes 1, 3 and
    // "all cells" give 18, 6 and 1 shards.
    let cells = mesh().num_cells();
    for name in KernelRegistry::global().names() {
        for (block_size, shards) in [(1, 18), (3, 6), (cells, 1)] {
            let config = EngineConfig::new(3)
                .with_kernel_name(name)
                .with_block_size(block_size);
            let engine = Engine::new(mesh(), Acoustic, config);
            assert_eq!(engine.shard_plan().unwrap().num_shards(), shards);
            assert_pipelines_agree(config, &format!("{name}, block_size={block_size}"));
        }
    }
}

#[test]
fn auto_shard_size_matches_barrier_bitwise_for_every_kernel() {
    // The tuner's block size, and the shard size derived from it: the
    // graph driver — volume update in place inside Predict, face lifts
    // in Apply — must agree with the barrier path's unfused corrector to
    // the last bit, not just to tolerance.
    for name in KernelRegistry::global().names() {
        assert_pipelines_agree(EngineConfig::new(3).with_kernel_name(name), name);
    }
}
