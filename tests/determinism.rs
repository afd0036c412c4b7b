//! Thread-count determinism: `Engine::step` must be bit-identical under
//! `ADERDG_THREADS = 1`, `4` and `16` — on **both** pipelines.
//!
//! Barrier path: the cell loops in `aderdg::core::par` chunk statically
//! over worker threads; every cell's predictor and corrector arithmetic
//! is self-contained (the corrector *reads* neighbour face tensors but
//! only writes its own cell), and `max_dt`'s parallel reduction is a
//! pure `max`, which is associative and commutative over non-NaN values.
//!
//! Sharded path: the task *schedule* is thread-count dependent, but every
//! face flux is computed exactly once by one task from fixed predictor
//! outputs, and each cell applies its corrections in a fixed order — so
//! the execution order must never leak into results, not even in the
//! last ulp. These tests guard both the static chunking and the shard
//! scheduler against accumulation-order drift.

use aderdg::core::{par, Engine, EngineConfig, PipelineMode};
use aderdg::mesh::StructuredMesh;
use aderdg::pde::{Acoustic, PointSource, SourceTimeFunction};
use std::sync::Mutex;

/// The thread-count override is process-global; serialize the tests that
/// flip it so they cannot interleave.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// Runs a seeded acoustic problem with a point source at the given thread
/// count and returns the full evolved state, bit-exact.
fn run_with(threads: usize, config: EngineConfig) -> Vec<u64> {
    par::set_num_threads(threads);
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(mesh, Acoustic, config);
    // Smooth deterministic initial data (a function of position only, so
    // every thread count computes identical node values).
    engine.set_initial(|x, q| {
        let s = (x[0] * 12.9898 + x[1] * 78.233 + x[2] * 37.719).sin();
        q[0] = 0.1 * s;
        q[1] = 0.05 * (x[0] * 3.0).cos();
        q[2] = 0.0;
        q[3] = 0.02 * s * s;
        Acoustic::set_params(q, 1.0 + 0.2 * x[2], 1.0);
    });
    engine.add_point_source(PointSource {
        position: [0.4, 0.55, 0.6],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.08,
            frequency: 6.0,
        },
    });
    let dt = engine.max_dt() * 0.5;
    assert!(dt.is_finite() && dt > 0.0);
    for _ in 0..3 {
        engine.step(dt);
    }
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect()
}

/// Asserts `config` produces bit-identical evolved states at 1, 4 and 16
/// worker threads.
fn assert_thread_invariant(config: EngineConfig, label: &str) {
    let reference = run_with(1, config);
    assert!(
        reference.iter().any(|&b| b != 0),
        "{label}: the run must actually evolve data"
    );
    for threads in [4, 16] {
        let result = run_with(threads, config);
        assert_eq!(
            result.len(),
            reference.len(),
            "{label}: state layout changed with thread count {threads}"
        );
        let diffs = result
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            diffs, 0,
            "{label}: {diffs} doubles differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn step_results_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    assert_thread_invariant(
        EngineConfig::new(3).with_pipeline(PipelineMode::Barrier),
        "barrier",
    );
    par::set_num_threads(before);
}

#[test]
fn sharded_step_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    // Auto shard size plus explicit sizes that split the 27-cell mesh
    // into many shards (worst case for schedule-dependent ordering),
    // one-shard / uneven-tail partitions, and the steal-heavy 13+13+1 and
    // 11+11+5 splits: some workers get far more cells than others, so the
    // pool's idle workers must steal to finish — the schedule differs
    // maximally from the inline 1-thread reference, yet the evolved state
    // must not drift by a single bit.
    let base = EngineConfig::new(3).with_pipeline(PipelineMode::Sharded);
    assert_thread_invariant(base, "sharded(auto)");
    for shard_size in [2, 5, 27, 13, 11] {
        assert_thread_invariant(
            base.with_shard_size(shard_size),
            &format!("sharded({shard_size})"),
        );
    }
    par::set_num_threads(before);
}

#[test]
fn max_dt_bit_identical_across_thread_counts() {
    // `max_dt` is the one parallel *reduction* in the step loop; the pool
    // folds per-chunk partial maxima in chunk-index order regardless of
    // which worker computed them, so the result must match the inline
    // 1-thread fold at every thread count exactly.
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    let dt_at = |threads: usize| {
        par::set_num_threads(threads);
        let mesh = StructuredMesh::unit_cube(4);
        let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(2));
        engine.set_initial(|x, q| {
            q[0] = x[0];
            q[1] = 0.0;
            q[2] = 0.0;
            q[3] = 0.0;
            Acoustic::set_params(q, 1.0 + 0.5 * x[1], 1.0 + 0.25 * x[0]);
        });
        engine.max_dt().to_bits()
    };
    let reference = dt_at(1);
    for threads in [4, 16] {
        assert_eq!(dt_at(threads), reference, "max_dt drifted at {threads}");
    }
    par::set_num_threads(before);
}
