//! Compares every registered Space-Time Predictor kernel head-to-head on
//! the paper's 21-quantity elastic configuration by running the
//! registered `elastic_stress` scenario once per kernel: numerical
//! agreement (final L2 error vs the exact plane wave), single-run wall
//! clock and throughput. A newly registered kernel shows up here with
//! zero edits — the loop enumerates the [`KernelRegistry`], the setup
//! lives in the scenario registry.
//!
//! Note the timings are **whole engine steps** (predictor + Riemann +
//! corrector, the latter two identical across kernels), so the speedup
//! column understates the predictor-only separation of the paper; the
//! paper figures (`aderdg-bench`: `figures fig4|fig6|fig10|speedups`)
//! time the predictor kernels in isolation.
//!
//! ```sh
//! cargo run --release --example variant_comparison [order]
//! ```

use aderdg::core::scenario::{RunRequest, ScenarioRegistry};
use aderdg::core::KernelRegistry;

fn main() {
    let order: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let scenario = ScenarioRegistry::global()
        .resolve("elastic_stress")
        .expect("elastic_stress is registered");

    println!(
        "STP variant comparison on `elastic_stress`: order {order}, m = 21 (elastic), 4^3 cells\n"
    );
    println!(
        "{:>16} {:>12} {:>14} {:>14} {:>10}",
        "variant", "steps", "cell upd/s", "L2 error", "speedup"
    );

    let mut reference: Option<(f64, f64)> = None; // (error, wall) of the first kernel
    for &kernel in KernelRegistry::global().kernels() {
        let summary = scenario
            .run(&RunRequest {
                order: Some(order),
                kernel: Some(kernel.name().to_string()),
                cells: Some(4),
                ..RunRequest::new()
            })
            .expect("scenario runs");
        let err = summary
            .l2_error
            .expect("elastic_stress has an exact solution");
        let (ref_err, ref_wall) = *reference.get_or_insert((err, summary.wall_seconds));
        println!(
            "{:>16} {:>12} {:>14.0} {:>14.4e} {:>9.2}x",
            kernel.label(),
            summary.steps,
            summary.cell_updates_per_second,
            err,
            ref_wall / summary.wall_seconds
        );
        // All variants compute the same scheme: their error against the
        // exact solution must agree to floating-point tolerance.
        let dev = (err - ref_err).abs() / ref_err.max(1e-300);
        assert!(
            dev < 1e-9,
            "kernel {} deviates from the reference error by {dev:.2e}",
            kernel.name()
        );
    }
    println!("\nall registered kernels agree to floating-point tolerance");
}
