//! `step_scaling` — engine step time of the barrier vs the sharded
//! pipeline across worker-thread counts.
//!
//! The sharded pipeline halves the interior Riemann solves and removes
//! the global predictor→corrector barrier, so it should be no slower at
//! one thread and faster once several workers can overlap a shard's face
//! sweep with its neighbours' predictors. This binary prints the
//! comparison per thread count.
//!
//! A second section compares `stepping = global` against clustered local
//! time stepping on the dt-heterogeneous `acoustic_layered` workload
//! (10:1 wave-speed contrast): the stiff layer forces the global CFL dt
//! onto every cell, while LTS advances the slow bulk at up to 8× the
//! base dt and only pays sub-window face corrections at the cluster
//! boundary. Costs are reported per unit of *simulated* time so the two
//! schedules are directly comparable, and a `BENCH_gemm.json`-style
//! point per thread count is appended with `kind = "lts"`.
//!
//! Environment knobs:
//!
//! * `ADERDG_ORDER` — scheme order (default 5)
//! * `ADERDG_CELLS` — cells per dimension (default 6)
//! * `ADERDG_STEPS` — timed steps per configuration (default 5)
//! * `ADERDG_SCALING_THREADS` — comma-separated thread counts
//!   (default `1,2,4,8`)
//! * `ADERDG_BENCH_OUT` — LTS-comparison point file
//!   (default `BENCH_pool.json`, next to the historical `kind = "pool"`
//!   points)
//! * `ADERDG_SMOKE=1` — tiny configuration for CI smoke runs (order 3,
//!   3³ cells, 2 steps, threads 1,2)

use aderdg_bench::env_usize;
use aderdg_bench::points::{append_point, JsonPoint};
use aderdg_core::{par, Engine, EngineConfig, PipelineMode, SteppingMode, TuningMode};
use aderdg_mesh::{BoundaryKind, StructuredMesh};
use aderdg_pde::{Acoustic, AcousticPlaneWave, ExactSolution};
use std::path::PathBuf;
use std::time::Instant;

/// Median step time in microseconds per cell.
fn measure(pipeline: PipelineMode, order: usize, cells_per_dim: usize, steps: usize) -> f64 {
    let wave = AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(cells_per_dim);
    let cells = mesh.num_cells();
    let config = EngineConfig::new(order)
        .with_tuning(TuningMode::Static)
        .with_pipeline(pipeline);
    let mut engine = Engine::new(mesh, Acoustic, config);
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Acoustic::set_params(q, 1.0, 1.0);
    });
    let dt = engine.max_dt();
    engine.step(dt); // warm-up: scratch allocation, page faults
    let mut times = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t0 = Instant::now();
        engine.step(dt);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2] * 1e6 / cells as f64
}

/// Median step cost in microseconds per unit of *simulated* time on the
/// layered 10:1 wave-speed contrast (the `acoustic_layered` scenario's
/// medium). Each scheme steps at its own stable dt — the global path at
/// the stiff layer's CFL limit, LTS at the macro dt spanning all
/// clusters — so dividing wall time by simulated time compares the two
/// schedules doing the same physical work.
fn measure_layered(stepping: SteppingMode, order: usize, dims: [usize; 3], steps: usize) -> f64 {
    let mesh = StructuredMesh::new(dims, [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]);
    let config = EngineConfig::new(order)
        .with_tuning(TuningMode::Static)
        .with_stepping(stepping);
    let mut engine = Engine::new(mesh, Acoustic, config);
    engine.set_initial(|x, q| {
        q.fill(0.0);
        let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
        q[0] = (-r2 / (2.0 * 0.1 * 0.1)).exp();
        // Stiff layer below x = 0.25: sound speed 10 vs 1.
        let bulk = if x[0] < 0.25 { 100.0 } else { 1.0 };
        Acoustic::set_params(q, 1.0, bulk);
    });
    let dt = engine.max_dt() * 0.9;
    engine.step(dt); // warm-up: scratch allocation, cluster build
    let mut times = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t0 = Instant::now();
        engine.step(dt);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2] * 1e6 / dt
}

fn main() {
    let smoke = std::env::var("ADERDG_SMOKE").is_ok_and(|v| v == "1");
    let (order, cells_per_dim, steps, threads) = if smoke {
        (3, 3, 2, vec![1, 2])
    } else {
        let threads = std::env::var("ADERDG_SCALING_THREADS")
            .unwrap_or_else(|_| "1,2,4,8".into())
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        (
            env_usize("ADERDG_ORDER", 5),
            env_usize("ADERDG_CELLS", 6),
            env_usize("ADERDG_STEPS", 5),
            threads,
        )
    };
    let cells = cells_per_dim * cells_per_dim * cells_per_dim;

    println!("\n=== step_scaling: barrier vs sharded pipeline ===");
    println!("order {order}, {cells} cells ({cells_per_dim}^3), median of {steps} steps");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "threads", "barrier µs/cell", "sharded µs/cell", "speedup"
    );
    for &t in &threads {
        par::set_num_threads(t);
        let barrier = measure(PipelineMode::Barrier, order, cells_per_dim, steps);
        let sharded = measure(PipelineMode::Sharded, order, cells_per_dim, steps);
        println!(
            "{:>8} {:>16.3} {:>16.3} {:>9.2}x",
            t,
            barrier,
            sharded,
            barrier / sharded
        );
    }

    let out: PathBuf = std::env::var("ADERDG_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_pool.json".into())
        .into();

    // Clustered LTS vs global stepping on the 10:1 layered medium. The
    // layer occupies the first quarter of the x extent, so most cells sit
    // in coarse-dt clusters and the win tracks the dt-histogram, not the
    // thread count — measured per thread count anyway for the record.
    let lts_dims = [8, cells_per_dim, cells_per_dim];
    let lts_cells = lts_dims.iter().product::<usize>();
    println!("\n=== step_scaling: global vs clustered LTS (acoustic_layered medium) ===");
    println!(
        "order {order}, {lts_cells} cells ({}x{}x{}), median of {steps} steps",
        lts_dims[0], lts_dims[1], lts_dims[2]
    );
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "threads", "global µs/t", "lts µs/t", "speedup"
    );
    for &t in &threads {
        par::set_num_threads(t);
        let global = measure_layered(SteppingMode::Global, order, lts_dims, steps);
        let lts = measure_layered(SteppingMode::Lts, order, lts_dims, steps);
        println!(
            "{:>8} {:>16.1} {:>16.1} {:>9.2}x",
            t,
            global,
            lts,
            global / lts
        );
        let point = JsonPoint::new()
            .str("kind", "lts")
            .str("scenario", "acoustic_layered")
            .int("order", order)
            .int("cells", lts_cells)
            .int("steps", steps)
            .int("threads", t)
            .int("smoke", usize::from(smoke))
            .num("global_us_per_time", global)
            .num("lts_us_per_time", lts)
            .num("speedup", global / lts)
            .finish();
        append_point(&out, &point).expect("write lts bench point");
    }
    println!("lts points -> {}", out.display());
}
