//! Electromagnetic wave propagation driven by a specification file —
//! demonstrates the opt-in kernel selection of the paper (Sec. II-C:
//! users choose variants in the specification file; optimized kernels
//! are opt-in) feeding the registered `maxwell_cavity` scenario. The spec
//! file, `examples/maxwell_cavity.spec`, is `key = value` lines over the
//! solver keys, read by `RunRequest::from_spec`; keys it leaves out keep
//! the scenario's defaults. `aderdg-run` reads the same file as a run
//! file, so both routes run the same solver:
//!
//! ```sh
//! cargo run --release --example maxwell_cavity
//! aderdg-run --scenario maxwell_cavity --config examples/maxwell_cavity.spec
//! ```

use aderdg::core::scenario::{resolve, RunRequest, ScenarioRegistry};

const SPEC: &str = include_str!("maxwell_cavity.spec");

fn main() {
    let request = RunRequest::from_spec(SPEC).expect("valid specification");
    let scenario = ScenarioRegistry::global()
        .resolve("maxwell_cavity")
        .expect("maxwell_cavity is registered");
    let config = resolve(&scenario.info(), &request)
        .expect("specification within range")
        .config;
    println!(
        "specification: order {}, kernel {}, cfl {}",
        config.order,
        config.kernel.label(),
        config.cfl
    );

    let summary = scenario.run(&request).expect("scenario runs");

    println!("\n{:>8} {:>12} {:>12}", "t", "L2 error", "energy");
    for p in summary.series.iter().skip(1) {
        println!(
            "{:>8.2} {:>12.3e} {:>12.6}",
            p.t,
            p.l2_error.expect("maxwell_cavity has an exact solution"),
            p.l2_norm
        );
    }

    let e0 = summary.series.first().expect("series has t = 0").l2_norm;
    let e1 = summary.l2_norm;
    assert!(e1 <= e0 * 1.001, "energy must not grow ({e0} -> {e1})");
    let err = summary.l2_error.expect("exact solution available");
    assert!(err < 5e-3, "unexpectedly large error {err}");
    println!("\nfull period propagated, energy non-increasing — Maxwell OK");
}
