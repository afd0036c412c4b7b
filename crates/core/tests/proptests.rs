//! Property-style tests of the Space-Time Predictor kernels: the paper's
//! implicit contracts (variant equivalence, linearity of the CK scheme,
//! layout invariance) over random configurations and states, driven by
//! deterministic seeded sweeps (hermetic build — no external
//! property-testing framework).
//!
//! Registry-driven: every kernel registered in [`KernelRegistry`] other
//! than the `generic` reference is checked against it, so a newly
//! registered variant is cross-checked with zero test edits.

use aderdg_core::kernels::{StpInputs, StpKernel, StpOutputs};
use aderdg_core::{KernelRegistry, StpConfig, StpPlan};
use aderdg_pde::{AdvectionNcpSystem, AdvectionSystem, LinearPde};
use aderdg_tensor::{Isa, Lcg};

/// Every registered kernel except the scalar reference.
fn optimized_kernels() -> Vec<&'static dyn StpKernel> {
    let kernels: Vec<_> = KernelRegistry::global()
        .kernels()
        .iter()
        .copied()
        .filter(|k| k.name() != "generic")
        .collect();
    assert!(!kernels.is_empty());
    kernels
}

fn random_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
    let mut rng = Lcg::new(seed);
    let m_pad = plan.aos.m_pad();
    let mut q = vec![0.0; plan.aos.len()];
    for k in 0..plan.n().pow(3) {
        for s in 0..plan.m() {
            q[k * m_pad + s] = rng.f64(-1.0, 1.0);
        }
    }
    q
}

fn run(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    kernel: &dyn StpKernel,
    q0: &[f64],
    dt: f64,
) -> StpOutputs {
    let mut scratch = kernel.make_scratch(plan);
    let mut out = StpOutputs::new(plan);
    kernel.run(
        plan,
        pde,
        scratch.as_mut(),
        &StpInputs {
            q0,
            dt,
            source: None,
        },
        &mut out,
    );
    out
}

/// Any optimized variant equals the generic reference for random sizes,
/// widths, velocities and states.
#[test]
fn optimized_variants_match_generic() {
    let generic = KernelRegistry::global().resolve("generic").unwrap();
    let mut rng = Lcg::new(0x5EED);
    for case in 0..8u64 {
        let n = 3 + (case as usize % 4);
        let m = 1 + (case as usize * 3) % 8;
        let width = Isa::ALL[case as usize % 3];
        let plan = StpPlan::new(StpConfig::new(n, m).with_width(width), [1.0; 3]);
        let pde = AdvectionSystem::new(
            m,
            [rng.f64(-1.0, 1.0), rng.f64(-1.0, 1.0), rng.f64(-1.0, 1.0)],
        );
        let q0 = random_state(&plan, 0xAB + case);
        let a = run(&plan, &pde, generic, &q0, 0.01);
        for kernel in optimized_kernels() {
            let b = run(&plan, &pde, kernel, &q0, 0.01);
            for (i, (x, y)) in b.qavg.iter().zip(a.qavg.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-11 * (1.0 + y.abs()),
                    "{} qavg[{i}]: {x} vs {y}",
                    kernel.name()
                );
            }
            for f in 0..6 {
                for (x, y) in b.fface[f].iter().zip(a.fface[f].iter()) {
                    assert!((x - y).abs() < 1e-11 * (1.0 + y.abs()), "{}", kernel.name());
                }
            }
        }
    }
}

/// The Cauchy-Kowalewsky predictor is linear in the input state:
/// STP(a·q1 + b·q2) = a·STP(q1) + b·STP(q2) (evolved variables).
#[test]
fn predictor_is_linear_in_state() {
    let m = 3;
    for kernel in optimized_kernels() {
        let mut rng = Lcg::new(0x11EA);
        for case in 0..4u64 {
            let n = 3 + (case as usize % 3);
            let (a, b) = (rng.f64(-2.0, 2.0), rng.f64(-2.0, 2.0));
            let plan = StpPlan::new(StpConfig::new(n, m), [1.0; 3]);
            let pde = AdvectionSystem::new(m, [0.6, -0.3, 0.9]);
            let q1 = random_state(&plan, 0xD0 + case);
            let q2 = random_state(&plan, 0xDEAD + case);
            let qc: Vec<f64> = q1.iter().zip(&q2).map(|(x, y)| a * x + b * y).collect();
            let o1 = run(&plan, &pde, kernel, &q1, 0.02);
            let o2 = run(&plan, &pde, kernel, &q2, 0.02);
            let oc = run(&plan, &pde, kernel, &qc, 0.02);
            for (i, ((x1, x2), xc)) in o1
                .qavg
                .iter()
                .zip(o2.qavg.iter())
                .zip(oc.qavg.iter())
                .enumerate()
            {
                let want = a * x1 + b * x2;
                assert!(
                    (xc - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "{} qavg[{i}]: {xc} vs {want}",
                    kernel.name()
                );
            }
        }
    }
}

/// Zero time step: q̄ = dt·q = 0 and all face tensors vanish.
#[test]
fn zero_dt_gives_zero_integrals() {
    for kernel in optimized_kernels() {
        for n in 3usize..6 {
            let plan = StpPlan::new(StpConfig::new(n, 2), [1.0; 3]);
            let pde = AdvectionSystem::new(2, [1.0, 1.0, 1.0]);
            let q0 = random_state(&plan, n as u64 * 3);
            let out = run(&plan, &pde, kernel, &q0, 0.0);
            for v in out.qavg.iter() {
                assert!(v.abs() < 1e-14);
            }
            for f in 0..6 {
                for v in out.fface[f].iter() {
                    assert!(v.abs() < 1e-14);
                }
            }
        }
    }
}

/// The time integral of a constant state is dt·q, for any dt.
#[test]
fn constant_state_time_integral() {
    for kernel in optimized_kernels() {
        let mut rng = Lcg::new(0xC0);
        for n in 3usize..6 {
            let dt = rng.f64(0.0, 0.2);
            let c0 = rng.f64(-3.0, 3.0);
            let plan = StpPlan::new(StpConfig::new(n, 2), [1.0; 3]);
            let pde = AdvectionSystem::new(2, [0.8, -0.5, 0.3]);
            let m_pad = plan.aos.m_pad();
            let mut q0 = vec![0.0; plan.aos.len()];
            for k in 0..n * n * n {
                q0[k * m_pad] = c0;
                q0[k * m_pad + 1] = -c0;
            }
            let out = run(&plan, &pde, kernel, &q0, dt);
            for k in 0..n * n * n {
                assert!((out.qavg[k * m_pad] - dt * c0).abs() < 1e-12 * (1.0 + dt * c0.abs()));
                assert!((out.qavg[k * m_pad + 1] + dt * c0).abs() < 1e-12 * (1.0 + dt * c0.abs()));
            }
        }
    }
}

/// Flux-form advection and ncp-form advection produce the same predictor
/// output (the computeF and computeNcp kernel paths are exchangeable for
/// constant coefficients).
#[test]
fn flux_and_ncp_formulations_agree() {
    let m = 2;
    for kernel in optimized_kernels() {
        let mut rng = Lcg::new(0xF1);
        for n in 3usize..6 {
            let (vx, vy) = (rng.f64(-1.0, 1.0), rng.f64(-1.0, 1.0));
            let plan = StpPlan::new(StpConfig::new(n, m), [1.0; 3]);
            let q0 = random_state(&plan, 0xFACE + n as u64);
            let flux_form = AdvectionSystem::new(m, [vx, vy, 0.4]);
            let ncp_form = AdvectionNcpSystem::new(m, [vx, vy, 0.4]);
            let a = run(&plan, &flux_form, kernel, &q0, 0.015);
            let b = run(&plan, &ncp_form, kernel, &q0, 0.015);
            for (i, (x, y)) in b.qavg.iter().zip(a.qavg.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-10 * (1.0 + y.abs()),
                    "{} qavg[{i}]: ncp {x} vs flux {y}",
                    kernel.name()
                );
            }
        }
    }
}

/// Padding lanes of every output stay exactly zero.
#[test]
fn output_padding_stays_zero() {
    for kernel in optimized_kernels() {
        for (n, m) in [(3usize, 1usize), (4, 3), (5, 5)] {
            let plan = StpPlan::new(StpConfig::new(n, m).with_width(Isa::Avx512), [1.0; 3]);
            let pde = AdvectionSystem::new(m, [0.5, 0.5, 0.5]);
            let q0 = random_state(&plan, (n * 7 + m) as u64);
            let out = run(&plan, &pde, kernel, &q0, 0.01);
            let m_pad = plan.aos.m_pad();
            for k in 0..n * n * n {
                for s in m..m_pad {
                    assert_eq!(
                        out.qavg[k * m_pad + s],
                        0.0,
                        "{} qavg pad k={k} s={s}",
                        kernel.name()
                    );
                    for d in 0..3 {
                        assert_eq!(out.favg[d][k * m_pad + s], 0.0, "{}", kernel.name());
                    }
                }
            }
        }
    }
}
