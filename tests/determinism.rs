//! Thread-count determinism: `Engine::step` must be bit-identical under
//! `ADERDG_THREADS = 1`, `4` and `16`.
//!
//! The task *schedule* of the graph driver is thread-count dependent, but
//! every face flux is computed exactly once by one task from fixed
//! predictor outputs, and each cell applies its corrections in a fixed
//! order — so the execution order must never leak into results, not even
//! in the last ulp. `max_dt`'s parallel reduction is a pure `max`, which
//! is associative and commutative over non-NaN values. These tests guard
//! the shard scheduler and the chunked reductions against
//! accumulation-order drift.

use aderdg::core::registry::KernelRegistry;
use aderdg::core::{par, Engine, EngineConfig};
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
    three_steps(3, config)
}

/// The seeded acoustic problem with a point source on a unit cube of
/// `cells³` cells.
fn seeded_engine(cells: usize, config: EngineConfig) -> Engine<Acoustic> {
    let mesh = StructuredMesh::unit_cube(cells);
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
    engine
}

/// The full evolved state, bit-exact.
fn state_bits(engine: &Engine<Acoustic>) -> Vec<u64> {
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect()
}

/// Three steps of the seeded problem on `cells³` cells, bit-exact.
fn three_steps(cells: usize, config: EngineConfig) -> Vec<u64> {
    let mut engine = seeded_engine(cells, config);
    let dt = engine.max_dt() * 0.5;
    assert!(dt.is_finite() && dt > 0.0);
    for _ in 0..3 {
        engine.step(dt);
    }
    state_bits(&engine)
}

/// Runs `f` on a new thread after replacing the pool's workers, so that
/// no thread `f` steps on holds a graph-driver scratch yet.
fn on_fresh_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    // A resize joins the old workers (their scratch goes with them); the
    // pool is rebuilt at `threads` on the next parallel call.
    par::set_num_threads(threads + 1);
    par::set_num_threads(threads);
    std::thread::scope(|s| s.spawn(f).join().unwrap())
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
fn sharded_step_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    // The tuner's block size plus explicit ones. On the 27-cell mesh the
    // derived shard size equals the block size, so these split the mesh
    // into many shards (worst case for schedule-dependent ordering),
    // one-shard / uneven-tail partitions, and the steal-heavy 13+13+1 and
    // 11+11+5 splits: some workers get far more cells than others, so the
    // pool's idle workers must steal to finish — the schedule differs
    // maximally from the inline 1-thread reference, yet the evolved state
    // must not drift by a single bit.
    let base = EngineConfig::new(3);
    assert_thread_invariant(base, "sharded(auto)");
    for (block_size, shards) in [(2, 14), (5, 6), (27, 1), (13, 3), (11, 3)] {
        let config = base.with_block_size(block_size);
        let engine = Engine::new(StructuredMesh::unit_cube(3), Acoustic, config);
        assert_eq!(engine.shard_plan().unwrap().num_shards(), shards);
        assert_thread_invariant(config, &format!("sharded(block_size={block_size})"));
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

#[test]
fn scratch_reuse_across_engines_matches_a_fresh_thread() {
    // Each thread keeps the graph driver's scratch of the last kernel,
    // `StpConfig` and block size it stepped. An engine on 2³ cells after
    // one on 4³ with the same order, kernel and block size reuses it
    // under another cell size (another plan), and must not see a bit of
    // that plan: every kernel, on the one-thread path (the calling
    // thread's scratch) and on the pool (the workers').
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    for &kernel in KernelRegistry::global().kernels() {
        // A fixed block size: the tuner may pick another per mesh, which
        // would rebuild the scratch instead of reusing it.
        let config = EngineConfig::new(3).with_kernel(kernel).with_block_size(4);
        for threads in [1, 2] {
            let label = format!("{} at {threads} thread(s)", kernel.name());
            let fresh = on_fresh_threads(threads, || three_steps(2, config));
            let reused = on_fresh_threads(threads, || {
                three_steps(4, config);
                three_steps(2, config)
            });
            let diffs = reused.iter().zip(&fresh).filter(|(a, b)| a != b).count();
            assert_eq!(
                diffs, 0,
                "{label}: {diffs} doubles differ from a fresh thread"
            );
        }
    }
    par::set_num_threads(before);
}

#[test]
fn scratch_reuse_across_thread_counts_matches_one_thread() {
    // One engine whose pool is resized between steps: every step runs on
    // other threads than the last, with scratch built anew or kept.
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    for &kernel in KernelRegistry::global().kernels() {
        let config = EngineConfig::new(3).with_kernel(kernel);
        let reference = run_with(1, config);
        let mut engine = seeded_engine(3, config);
        let dt = engine.max_dt() * 0.5;
        for threads in [1, 2, 4] {
            par::set_num_threads(threads);
            engine.step(dt);
        }
        let label = kernel.name();
        assert!(
            state_bits(&engine) == reference,
            "{label}: 1 → 2 → 4 threads"
        );
    }
    par::set_num_threads(before);
}
