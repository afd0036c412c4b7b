//! Registry-driven equivalence matrix: every kernel registered in the
//! [`KernelRegistry`] — not a hard-coded list — must produce the same
//! acoustic plane-wave evolution to floating-point tolerance, both at the
//! single-invocation level and through a full engine run. A newly
//! registered variant is cross-checked here with zero test edits.

use aderdg::core::kernels::{StpInputs, StpOutputs};
use aderdg::core::{
    BlockInputs, CellBlock, Engine, EngineConfig, KernelRegistry, SteppingMode, StpConfig, StpPlan,
};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{Acoustic, AcousticPlaneWave, ExactSolution};

fn plane_wave() -> AcousticPlaneWave {
    AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    }
}

/// Full-engine matrix: each registered kernel drives the engine on the
/// same acoustic plane wave; all end states must agree with the first
/// kernel's and stay close to the exact solution.
#[test]
fn all_registered_kernels_agree_on_acoustic_plane_wave() {
    let wave = plane_wave();
    let kernels = KernelRegistry::global().kernels();
    assert!(
        kernels.len() >= 4,
        "expected at least the four paper variants, got {:?}",
        KernelRegistry::global().names()
    );

    let mut reference: Option<(String, Vec<Vec<f64>>)> = None;
    for &kernel in kernels {
        let mesh = StructuredMesh::unit_cube(2);
        let config = EngineConfig::new(4).with_kernel(kernel);
        let mut engine = Engine::new(mesh, Acoustic, config);
        engine.set_initial(|x, q| {
            wave.evaluate(x, 0.0, q);
            Acoustic::set_params(q, 1.0, 1.0);
        });
        engine.run_until(0.05);

        let err = engine.l2_error(&wave);
        assert!(err < 5e-2, "{}: acoustic error {err}", kernel.name());

        let states: Vec<Vec<f64>> = (0..engine.mesh.num_cells())
            .map(|c| engine.cell_state(c).to_vec())
            .collect();
        match &reference {
            None => reference = Some((kernel.name().to_string(), states)),
            Some((ref_name, ref_states)) => {
                for (c, (a_cell, b_cell)) in states.iter().zip(ref_states).enumerate() {
                    for (i, (a, b)) in a_cell.iter().zip(b_cell).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                            "{} vs {ref_name}, cell {c} dof {i}: {a} vs {b}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}

/// Samples the plane wave onto one cell's padded AoS nodes, with a phase
/// offset so distinct cells hold distinct states.
fn plane_wave_state(plan: &StpPlan, phase: f64) -> Vec<f64> {
    let wave = plane_wave();
    let n = plan.n();
    let m_pad = plan.aos.m_pad();
    let nodes = &plan.basis.nodes;
    let mut q0 = vec![0.0; plan.aos.len()];
    for k3 in 0..n {
        for k2 in 0..n {
            for k1 in 0..n {
                let x = [
                    0.5 * nodes[k1] + phase,
                    0.5 * nodes[k2] - 0.3 * phase,
                    0.5 * nodes[k3],
                ];
                let node = (k3 * n + k2) * n + k1;
                let q = &mut q0[node * m_pad..node * m_pad + plan.m()];
                wave.evaluate(x, 0.0, q);
                Acoustic::set_params(q, 1.0, 1.0);
            }
        }
    }
    q0
}

/// Every output tensor's bits, in a fixed order.
fn output_bits(out: &StpOutputs) -> Vec<u64> {
    [&out.qavg]
        .into_iter()
        .chain(&out.favg)
        .chain(&out.qface)
        .chain(&out.fface)
        .flat_map(|t| t.iter().map(|v| v.to_bits()))
        .collect()
}

/// Block matrix: for every registered kernel and block sizes {1, 4, 7},
/// `run_block` over a staged [`CellBlock`] must reproduce the per-cell
/// `run` path cell by cell (≤ 1e-12 relative), and `run` on the block
/// scratch must reproduce it bitwise (the `make_block_scratch` contract
/// the engine's LTS half-window runs rest on). This is the contract the
/// engine's batched pipeline rests on, checked with zero test edits for
/// future kernels.
#[test]
fn block_path_matches_per_cell_path_for_every_kernel() {
    let plan = StpPlan::new(StpConfig::new(4, Acoustic.num_quantities()), [0.5; 3]);
    use aderdg::pde::LinearPde;
    let dt = 1e-3;
    let tol = 1e-12;

    // Cells 1 and 4 carry a point source, so the block paths' per-cell
    // source injection (distinct slot arithmetic in the AoSoA layout) is
    // exercised at interior block positions, not just source-free cells.
    let cell_source = |c: usize| -> Option<aderdg::core::CellSource> {
        (c % 3 == 1).then(|| {
            let derivs: Vec<Vec<f64>> = (0..=plan.n())
                .map(|o| {
                    (0..Acoustic.num_quantities())
                        .map(|s| 0.1 * (o as f64 + 1.0) - 0.03 * s as f64)
                        .collect()
                })
                .collect();
            aderdg::core::CellSource::project(&plan, [0.6, 0.25, 0.4], [0.5; 3], derivs)
        })
    };

    for &kernel in KernelRegistry::global().kernels() {
        // Per-cell reference outputs for 7 distinct cell states.
        let states: Vec<Vec<f64>> = (0..7)
            .map(|c| plane_wave_state(&plan, 0.37 * c as f64))
            .collect();
        let cell_sources: Vec<Option<aderdg::core::CellSource>> =
            (0..states.len()).map(cell_source).collect();
        let mut scratch = kernel.make_scratch(&plan);
        let reference: Vec<StpOutputs> = states
            .iter()
            .enumerate()
            .map(|(c, q0)| {
                let mut out = StpOutputs::new(&plan);
                kernel.run(
                    &plan,
                    &Acoustic,
                    scratch.as_mut(),
                    &StpInputs {
                        q0,
                        dt,
                        source: cell_sources[c].as_ref(),
                    },
                    &mut out,
                );
                out
            })
            .collect();

        for &bs in &[1usize, 4, 7] {
            let mut block_scratch = kernel.make_block_scratch(&plan, bs);
            let mut block = CellBlock::new(&plan, bs);
            // Walk the 7 cells in blocks of `bs` (the tail block is
            // partial, exercising the short-block path).
            let mut base = 0;
            while base < states.len() {
                let cells = bs.min(states.len() - base);
                block.clear();
                for q0 in &states[base..base + cells] {
                    block.push(q0);
                }
                let sources: Vec<Option<&aderdg::core::CellSource>> = (base..base + cells)
                    .map(|c| cell_sources[c].as_ref())
                    .collect();
                let mut outs: Vec<StpOutputs> =
                    (0..cells).map(|_| StpOutputs::new(&plan)).collect();
                kernel.run_block(
                    &plan,
                    &Acoustic,
                    block_scratch.as_mut(),
                    &BlockInputs::new(&block, dt, &sources),
                    &mut outs,
                );
                for (c, out) in outs.iter().enumerate() {
                    let want = &reference[base + c];
                    let ctx =
                        |what: &str| format!("{} bs={bs} cell={} {what}", kernel.name(), base + c);
                    for (i, (a, b)) in out.qavg.iter().zip(want.qavg.iter()).enumerate() {
                        assert!(
                            (a - b).abs() <= tol * (1.0 + b.abs()),
                            "{} [{i}]: {a} vs {b}",
                            ctx("qavg")
                        );
                    }
                    for d in 0..3 {
                        for (a, b) in out.favg[d].iter().zip(want.favg[d].iter()) {
                            assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{}", ctx("favg"));
                        }
                    }
                    for f in 0..6 {
                        for (a, b) in out.qface[f].iter().zip(want.qface[f].iter()) {
                            assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{}", ctx("qface"));
                        }
                        for (a, b) in out.fface[f].iter().zip(want.fface[f].iter()) {
                            assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{}", ctx("fface"));
                        }
                    }
                }
                base += cells;
            }
            // One-cell runs on the (now dirty) block scratch.
            for (c, q0) in states.iter().enumerate() {
                let mut out = StpOutputs::new(&plan);
                kernel.run(
                    &plan,
                    &Acoustic,
                    block_scratch.as_mut(),
                    &StpInputs {
                        q0,
                        dt,
                        source: cell_sources[c].as_ref(),
                    },
                    &mut out,
                );
                assert!(
                    output_bits(&out) == output_bits(&reference[c]),
                    "{} bs={bs} cell={c}: run on block scratch differs from run",
                    kernel.name()
                );
            }
        }
    }
}

/// Engine-level block invariance: full runs at block sizes {1, 4, 7} end
/// in the same state (≤ 1e-12 relative) for every registered kernel — on
/// the plane wave under global stepping and on a `[4, 2, 2]` two-cluster
/// layered medium under LTS, whose half-window runs use the block scratch.
#[test]
fn engine_states_invariant_under_block_size() {
    let wave = plane_wave();
    for &kernel in KernelRegistry::global().kernels() {
        for lts in [false, true] {
            let run = |block_size: usize| {
                let config = EngineConfig::new(3)
                    .with_kernel(kernel)
                    .with_block_size(block_size);
                let mut engine = if lts {
                    let mesh = StructuredMesh::new(
                        [4, 2, 2],
                        [0.0; 3],
                        [1.0; 3],
                        [BoundaryKind::Reflective; 3],
                    );
                    let config = config.with_stepping(SteppingMode::Lts);
                    let mut engine = Engine::new(mesh, Acoustic, config);
                    engine.set_initial(|x, q| {
                        q.fill(0.0);
                        q[0] = (x[0] * 3.0).sin();
                        Acoustic::set_params(q, 1.0, if x[0] < 0.5 { 4.0 } else { 1.0 });
                    });
                    engine
                } else {
                    let mut engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, config);
                    engine.set_initial(|x, q| {
                        wave.evaluate(x, 0.0, q);
                        Acoustic::set_params(q, 1.0, 1.0);
                    });
                    engine
                };
                engine.run_until(0.04);
                if lts {
                    assert!(
                        engine.lts_clocks().len() >= 2,
                        "layered medium must cluster into several levels"
                    );
                }
                (0..engine.mesh.num_cells())
                    .map(|c| engine.cell_state(c).to_vec())
                    .collect::<Vec<_>>()
            };
            let reference = run(1);
            for bs in [4, 7] {
                for (c, (a_cell, b_cell)) in run(bs).iter().zip(&reference).enumerate() {
                    for (i, (a, b)) in a_cell.iter().zip(b_cell).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                            "{} lts={lts} bs={bs} cell {c} dof {i}: {a} vs {b}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}

/// Single-invocation matrix on the same plane-wave state: predictor
/// outputs (volume and face tensors) of every registered kernel must
/// match the first registered kernel's — on the host's widest GEMM tile
/// and on the portable one (same layouts, so one reference serves both).
#[test]
fn all_registered_kernels_agree_on_single_predictor_invocation() {
    let wave = plane_wave();
    use aderdg::pde::LinearPde;
    let cfg = StpConfig::new(5, Acoustic.num_quantities());
    let plan = StpPlan::new(cfg, [0.5; 3]);
    let portable = aderdg::gemm::backend_for(aderdg::gemm::Isa::Baseline);
    let portable_plan = StpPlan::with_gemm_backend(cfg, [0.5; 3], portable);

    // Sample the plane wave onto one cell's padded AoS nodes.
    let n = plan.n();
    let m_pad = plan.aos.m_pad();
    let nodes = plan.basis.nodes.clone();
    let mut q0 = vec![0.0; plan.aos.len()];
    for k3 in 0..n {
        for k2 in 0..n {
            for k1 in 0..n {
                let x = [0.5 * nodes[k1], 0.5 * nodes[k2], 0.5 * nodes[k3]];
                let node = (k3 * n + k2) * n + k1;
                let q = &mut q0[node * m_pad..node * m_pad + plan.m()];
                wave.evaluate(x, 0.0, q);
                Acoustic::set_params(q, 1.0, 1.0);
            }
        }
    }
    let inputs = StpInputs {
        q0: &q0,
        dt: 1e-3,
        source: None,
    };

    let mut reference: Option<(String, StpOutputs)> = None;
    for plan in [&plan, &portable_plan] {
        for &kernel in KernelRegistry::global().kernels() {
            let mut scratch = kernel.make_scratch(plan);
            let mut out = StpOutputs::new(plan);
            kernel.run(plan, &Acoustic, scratch.as_mut(), &inputs, &mut out);
            let who = format!("{} on {}", kernel.name(), plan.gemm_backend().name());
            match &reference {
                None => reference = Some((who, out)),
                Some((ref_name, r)) => {
                    for (i, (a, b)) in out.qavg.iter().zip(r.qavg.iter()).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-11 * (1.0 + b.abs()),
                            "{who} vs {ref_name} qavg[{i}]: {a} vs {b}"
                        );
                    }
                    for f in 0..6 {
                        for (a, b) in out.fface[f].iter().zip(r.fface[f].iter()) {
                            assert!(
                                (a - b).abs() < 1e-11 * (1.0 + b.abs()),
                                "{who} vs {ref_name} fface[{f}]"
                            );
                        }
                    }
                }
            }
        }
    }
}
