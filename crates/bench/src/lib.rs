//! # aderdg-bench
//!
//! The paper-figure reproduction: elastic workload construction (the
//! paper's m = 21 configuration), wall-clock kernel timing against a
//! calibrated peak, cache-simulated stall fractions and instruction-mix
//! evaluation, and — in [`figures`] — one function per paper figure behind
//! the `figures <name>|all|--list` binary.
//!
//! Performance tracking of the engine itself lives in `benchmark/`
//! (`bench_e2e`), not here.

pub mod figures;

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

/// Orders the figures sweep: `ADERDG_ORDERS` if set, else the paper's
/// 4..=11.
///
/// # Panics
/// If `ADERDG_ORDERS` is set but [`parse_orders`] rejects it — a typo
/// silently shrinking the sweep would print a plausible, wrong table.
pub fn paper_orders() -> Vec<usize> {
    match std::env::var("ADERDG_ORDERS") {
        // PANIC-OK: configuration typos fail loudly by policy (see doc
        // comment above).
        Ok(s) => parse_orders(&s).unwrap_or_else(|e| panic!("invalid ADERDG_ORDERS `{s}` ({e})")),
        Err(_) => (4..=11).collect(),
    }
}

/// Parses an `ADERDG_ORDERS` value: a non-empty comma-separated list of
/// scheme orders, each an integer in 2..=15.
pub fn parse_orders(value: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|token| match token.trim().parse::<usize>() {
            Ok(order) if (2..=15).contains(&order) => Ok(order),
            _ => Err(format!(
                "expected comma-separated orders in 2..=15, got `{}`",
                token.trim()
            )),
        })
        .collect()
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

    let mut run_batch = || {
        for q0 in &states {
            let inputs = StpInputs {
                q0,
                dt: 1e-3,
                source: None,
            };
            kernel.run(&plan, &pde, scratch.as_mut(), &inputs, &mut out);
        }
    };
    run_batch(); // warm-up
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        run_batch();
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
        mix,
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
    fn parse_orders_accepts_lists_of_valid_orders() {
        assert_eq!(parse_orders("4"), Ok(vec![4]));
        assert_eq!(parse_orders("4,6"), Ok(vec![4, 6]));
        assert_eq!(parse_orders(" 2 , 15 "), Ok(vec![2, 15]));
    }

    #[test]
    fn parse_orders_rejects_empty_garbled_and_out_of_range() {
        for bad in ["", ",", "4,", "4,x", "4;6", "1", "16", "-4", "4.0"] {
            let err = parse_orders(bad).expect_err(bad);
            assert!(err.contains("orders in 2..=15"), "{bad}: {err}");
        }
        assert!(parse_orders("4,x").unwrap_err().contains("`x`"));
    }
}
