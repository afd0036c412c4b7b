//! # aderdg-bench
//!
//! Shared measurement harness for the figure-regeneration binaries and the
//! Criterion benches: elastic workload construction (the paper's m = 21
//! configuration), wall-clock kernel timing against a calibrated peak,
//! cache-simulated stall fractions, and instruction-mix evaluation.
//!
//! Every binary prints the same series the corresponding paper figure
//! plots; see DESIGN.md §5 for the experiment index.

pub mod points;

use aderdg_core::kernels::{StpInputs, StpOutputs};
use aderdg_core::mix::{stp_pack_counts, stp_useful_flops, UserFunctionCost};
use aderdg_core::traces::trace_batch;
use aderdg_core::{KernelVariant, StpConfig, StpPlan};
use aderdg_pde::{Elastic, Material};
use aderdg_perf::{measure_peak_gflops, CacheSim, MachineModel, PackCounts, PerfMeasurement};
use aderdg_tensor::SimdWidth;
use std::sync::OnceLock;
use std::time::Instant;

/// Quantities of the paper's elastic benchmark.
pub const M_ELASTIC: usize = 21;

/// Parses a positive integer knob from the environment, falling back to
/// `default` when unset, unparsable or zero (shared by the bench
/// binaries' size/step knobs).
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Orders evaluated in the paper's figures.
pub fn paper_orders() -> Vec<usize> {
    match std::env::var("ADERDG_ORDERS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => (4..=11).collect(),
    }
}

/// Host peak calibration, measured once per process (release builds).
pub fn calibrated_peak_gflops() -> f64 {
    static PEAK: OnceLock<f64> = OnceLock::new();
    *PEAK.get_or_init(|| measure_peak_gflops(200))
}

/// Builds a reproducible random elastic state (mildly curvilinear metric,
/// physical material) in the plan's padded AoS layout.
pub fn elastic_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
    let mut rng = aderdg_tensor::Lcg::new(seed);
    let mut next = move || rng.unit();
    let m_pad = plan.aos.m_pad();
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    let n = plan.n();
    let mut q = vec![0.0; plan.aos.len()];
    for k in 0..n * n * n {
        for s in 0..9 {
            q[k * m_pad + s] = next();
        }
        let mut jac = Elastic::IDENTITY_JAC;
        jac[1] = 0.05 * next();
        jac[5] = 0.05 * next();
        Elastic::set_params(&mut q[k * m_pad..k * m_pad + M_ELASTIC], mat, &jac);
    }
    q
}

/// One measured configuration of the STP kernel.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel variant.
    pub variant: KernelVariant,
    /// Scheme order.
    pub order: usize,
    /// SIMD width of the plan (padding + dispatch).
    pub width: SimdWidth,
    /// Wall-clock seconds per cell (median of repetitions).
    pub seconds_per_cell: f64,
    /// Useful GFlop/s achieved.
    pub gflops: f64,
    /// Fraction of the calibrated host peak.
    pub available_fraction: f64,
    /// Modelled memory-stall fraction (Skylake-SP cache hierarchy).
    pub stall_fraction: f64,
    /// Instruction-mix model (classified executed flops).
    pub mix: PackCounts,
    /// Temporary-buffer footprint in bytes.
    pub footprint_bytes: usize,
}

/// Measures `variant` at `order` on the m = 21 elastic workload.
///
/// Wall-clock: a batch of `cells` predictor invocations on distinct input
/// states with shared scratch (the production pattern), repeated `reps`
/// times, median taken. Stalls: cache simulation of the same batch
/// pattern. Mix: analytic classification.
pub fn measure_stp(
    variant: KernelVariant,
    order: usize,
    width: SimdWidth,
    cells: usize,
    reps: usize,
) -> Measurement {
    let cfg = StpConfig::new(order, M_ELASTIC).with_width(width);
    let plan = StpPlan::new(cfg, [0.1; 3]);
    let pde = Elastic;
    let cost = UserFunctionCost::elastic();

    let states: Vec<Vec<f64>> = (0..cells)
        .map(|c| elastic_state(&plan, 0x9E37 + c as u64))
        .collect();
    let kernel = variant.kernel();
    let mut scratch = kernel.make_scratch(&plan);
    let mut out = StpOutputs::new(&plan);

    // Warm-up.
    for q0 in &states {
        kernel.run(
            &plan,
            &pde,
            scratch.as_mut(),
            &StpInputs {
                q0,
                dt: 1e-3,
                source: None,
            },
            &mut out,
        );
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for q0 in &states {
            kernel.run(
                &plan,
                &pde,
                scratch.as_mut(),
                &StpInputs {
                    q0,
                    dt: 1e-3,
                    source: None,
                },
                &mut out,
            );
        }
        times.push(t0.elapsed().as_secs_f64() / cells as f64);
    }
    times.sort_by(f64::total_cmp);
    let seconds_per_cell = times[times.len() / 2];

    let useful = stp_useful_flops(&plan, cost);
    let peak = calibrated_peak_gflops();
    let perf = PerfMeasurement {
        flops: useful,
        seconds: seconds_per_cell,
        peak_gflops: peak,
    };

    // Cache-simulated stalls (warm-up cell, then measured batch), with
    // the compute denominator from the variant's instruction mix.
    let machine = MachineModel::skylake_sp();
    let mut sim = CacheSim::skylake_sp();
    trace_batch(&plan, variant, false, 1, &mut sim);
    sim.reset_stats();
    let sim_cells = cells.max(2);
    trace_batch(&plan, variant, false, sim_cells, &mut sim);
    let mix = stp_pack_counts(&plan, variant, cost);
    let stall = machine.stall_fraction_mix(&sim.stats(), &mix.scale(sim_cells as u64));

    Measurement {
        variant,
        order,
        width,
        seconds_per_cell,
        gflops: perf.gflops(),
        available_fraction: perf.available_fraction(),
        stall_fraction: stall,
        mix: stp_pack_counts(&plan, variant, cost),
        footprint_bytes: kernel.footprint_bytes(&plan),
    }
}

/// Prints the standard figure table header.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>6} {:>18} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "order", "variant", "width", "time/cell", "GFlop/s", "avail%", "stall%"
    );
}

/// Prints one measurement row.
pub fn print_row(m: &Measurement) {
    println!(
        "{:>6} {:>18} {:>8} {:>10.2} µs {:>10.2} {:>9.1}% {:>9.1}%",
        m.order,
        m.variant.name(),
        format!("{}b", m.width.bits()),
        m.seconds_per_cell * 1e6,
        m.gflops,
        m.available_fraction * 100.0,
        m.stall_fraction * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_smoke() {
        let m = measure_stp(KernelVariant::SplitCk, 4, SimdWidth::W8, 2, 2);
        assert!(m.seconds_per_cell > 0.0);
        assert!(m.gflops > 0.0);
        assert!(m.stall_fraction >= 0.0 && m.stall_fraction < 1.0);
        assert!(m.mix.total() > 0);
        assert!(m.footprint_bytes > 0);
    }

    #[test]
    fn paper_orders_env_override() {
        // Default covers the paper's range.
        let o = paper_orders();
        assert!(o.contains(&4) && o.contains(&11) || std::env::var("ADERDG_ORDERS").is_ok());
    }
}

/// Engine-level block-size sweep machinery, shared by the `block_sweep`
/// binary and the tuner-validation compare mode.
pub mod block_sweep {
    use aderdg_core::kernels::StpKernel;
    use aderdg_core::{Engine, EngineConfig, TuningMode};
    use aderdg_mesh::StructuredMesh;
    use aderdg_pde::{Acoustic, AcousticPlaneWave, ExactSolution};
    use std::time::Instant;

    /// One measured sweep point.
    #[derive(Debug, Clone, Copy)]
    pub struct SweepPoint {
        /// Cells per predictor block.
        pub block_size: usize,
        /// Measured microseconds per cell per step (median-free single
        /// timing over `steps` steps, after one warm-up step).
        pub us_per_cell: f64,
    }

    /// Drives a full acoustic engine at `order` on a
    /// `cells_per_dim³` mesh once per entry of `block_sizes` and returns
    /// the measured step cost. Block sizes are explicit overrides, so no
    /// tuner runs inside the sweep — this is the ground truth the tuner
    /// is validated against.
    pub fn sweep_kernel(
        kernel: &'static dyn StpKernel,
        order: usize,
        cells_per_dim: usize,
        block_sizes: &[usize],
        steps: usize,
    ) -> Vec<SweepPoint> {
        let wave = AcousticPlaneWave {
            direction: [1.0, 0.0, 0.0],
            amplitude: 1.0,
            wavenumber: 1.0,
            rho: 1.0,
            bulk: 1.0,
        };
        block_sizes
            .iter()
            .map(|&bs| {
                let mesh = StructuredMesh::unit_cube(cells_per_dim);
                let cells = mesh.num_cells();
                let config = EngineConfig::new(order)
                    .with_kernel(kernel)
                    .with_tuning(TuningMode::Static)
                    .with_block_size(bs);
                let mut engine = Engine::new(mesh, Acoustic, config);
                engine.set_initial(|x, q| {
                    wave.evaluate(x, 0.0, q);
                    Acoustic::set_params(q, 1.0, 1.0);
                });
                let dt = engine.max_dt();
                engine.step(dt); // warm-up: scratch allocation, page faults
                let start = Instant::now();
                for _ in 0..steps {
                    engine.step(dt);
                }
                let us_per_cell =
                    start.elapsed().as_secs_f64() * 1e6 / (steps as f64 * cells as f64);
                SweepPoint {
                    block_size: bs,
                    us_per_cell,
                }
            })
            .collect()
    }

    /// The measured-optimal plateau: every block size whose step cost is
    /// within `tolerance` (e.g. `1.15` = 15 %) of the fastest point.
    /// Step-time curves over block size are flat around the optimum, so
    /// a tuner pick anywhere on the plateau is as good as the argmin.
    pub fn plateau(points: &[SweepPoint], tolerance: f64) -> Vec<usize> {
        let best = points
            .iter()
            .map(|p| p.us_per_cell)
            .fold(f64::INFINITY, f64::min);
        points
            .iter()
            .filter(|p| p.us_per_cell <= best * tolerance)
            .map(|p| p.block_size)
            .collect()
    }
}

/// Minimal micro-bench harness (`harness = false` benches) — a criterion
/// substitute that keeps the workspace free of external dependencies.
pub mod harness {
    use std::time::{Duration, Instant};

    /// Times `f` (median of repeated calls after warm-up) and prints one
    /// aligned row: `group/label   median`.
    pub fn bench(group: &str, label: &str, mut f: impl FnMut()) -> f64 {
        for _ in 0..3 {
            f();
        }
        let mut times = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(300);
        while times.len() < 10 || (Instant::now() < deadline && times.len() < 2000) {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        println!(
            "{:<48} {:>12}",
            format!("{group}/{label}"),
            format_time(median)
        );
        median
    }

    fn format_time(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1} ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2} µs", secs * 1e6)
        } else {
            format!("{:.2} ms", secs * 1e3)
        }
    }
}
