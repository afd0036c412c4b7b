//! Registry-driven equivalence matrix: every kernel registered in the
//! [`KernelRegistry`] — not a hard-coded list — must produce the same
//! acoustic plane-wave evolution to floating-point tolerance, both at the
//! single-invocation level and through a full engine run. A newly
//! registered variant is cross-checked here with zero test edits, except
//! for one row in the bit-level pin table that names every kernel.

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
    let faces = out.qface.iter().chain(&out.fface).map(|t| &t[..]);
    [&out.qavg]
        .into_iter()
        .chain(&out.favg)
        .map(|t| &t[..])
        .chain(faces)
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

/// FNV-1a 64 over the little-endian bytes of `bits` — the checkpoint
/// codec's hash.
fn fnv1a(bits: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bit-level pin of every registered kernel: the FNV-1a hash of its
/// outputs on three inputs — acoustic with parameter rows, the ncp path
/// and the point-source path — and its scratch footprint for m = 21 at
/// orders 2..=12. Every plan is built at [`Isa::Baseline`], whose GEMM
/// tile and lane bodies are the portable, unfused ones, so the values
/// do not depend on the host. A kernel change that moves any bit of any
/// output, or any scratch byte, fails here.
#[test]
fn kernel_outputs_are_pinned_bit_for_bit() {
    use aderdg::core::CellSource;
    use aderdg::pde::{AdvectionNcpSystem, AdvectionSystem, LinearPde};
    use aderdg::tensor::{Isa, Lcg};

    let plan_for = |order: usize, m: usize| {
        StpPlan::new(
            StpConfig::new(order, m).with_width(Isa::Baseline),
            [1.0, 0.8, 1.25],
        )
    };
    // A seeded state over the evolved rows; `params` fills the rest.
    let state = |plan: &StpPlan, vars: usize, seed: u64, params: &dyn Fn(usize, &mut [f64])| {
        let mut rng = Lcg::new(seed);
        let mut q = vec![0.0; plan.aos.len()];
        for (k, node) in q.chunks_exact_mut(plan.aos.m_pad()).enumerate() {
            node[..vars].copy_from_slice(&rng.vec(vars, -0.5, 0.5));
            params(k, &mut node[..plan.m()]);
        }
        q
    };

    let acoustic_plan = plan_for(4, Acoustic.num_quantities());
    let acoustic_q0 = state(&acoustic_plan, Acoustic.num_vars(), 1, &|k, q| {
        Acoustic::set_params(q, 1.1 + 0.02 * (k % 7) as f64, 2.5 - 0.1 * (k % 3) as f64)
    });
    let ncp = AdvectionNcpSystem::new(3, [0.6, -0.1, 0.9]);
    let ncp_plan = plan_for(5, 3);
    let ncp_q0 = state(&ncp_plan, 3, 2, &|_, _| {});
    let advection = AdvectionSystem::new(2, [0.2, 0.5, -0.7]);
    let source_plan = plan_for(4, 2);
    let source_q0 = state(&source_plan, 2, 3, &|_, _| {});
    let derivs = vec![
        vec![0.5, -0.25],
        vec![1.5, 0.75],
        vec![-2.0, 0.125],
        vec![3.25, -1.0],
        vec![-0.5, 2.5],
    ];
    let source = CellSource::project(&source_plan, [0.3, 0.6, 0.2], [1.0, 0.8, 1.25], derivs);
    let cases = [
        (
            &Acoustic as &dyn LinearPde,
            &acoustic_plan,
            &acoustic_q0,
            None,
        ),
        (&ncp, &ncp_plan, &ncp_q0, None),
        (&advection, &source_plan, &source_q0, Some(&source)),
    ];

    // (name, output hash per case, footprint bytes at orders 2..=12).
    let pinned: [(&str, [u64; 3], [usize; 11]); 5] = [
        (
            "generic",
            [0xb335394cd90babf3, 0xde2d345a988b7150, 0x11eae448b34f892c],
            [
                32256, 154224, 473088, 1134000, 2322432, 4264176, 7225344, 11512368, 17472000,
                25491312, 35997696,
            ],
        ),
        (
            "log",
            [0x5678734a8169c00b, 0x3b642cdf7c60e76f, 0x90ba9d6e8c9aa254],
            [
                33792, 161568, 495616, 1188000, 2433024, 4467232, 7569408, 12060576, 18304000,
                26705184, 37711872,
            ],
        ),
        (
            "splitck",
            [0x90c3a90dc637a59d, 0x3b642cdf7c60e76f, 0xd3e602b3a30de64f],
            [
                5632, 19008, 45056, 88000, 152064, 241472, 360448, 513216, 704000, 937024, 1216512,
            ],
        ),
        (
            "aosoa_splitck",
            [0x67a57d2d3b046893, 0x3b642cdf7c60e76f, 0xd3e602b3a30de64f],
            [
                6720, 30240, 53760, 126000, 181440, 329280, 430080, 680400, 840000, 1219680,
                1451520,
            ],
        ),
        (
            "onthefly",
            [0x67a57d2d3b046893, 0x3b642cdf7c60e76f, 0xd3e602b3a30de64f],
            [
                6640, 21024, 47072, 91024, 155088, 245504, 364480, 518256, 709040, 943072, 1222560,
            ],
        ),
    ];
    let registry = KernelRegistry::global();
    assert_eq!(
        registry.names(),
        pinned.map(|p| p.0),
        "registry and pin table list different kernels"
    );
    for (name, hashes, footprints) in pinned {
        let kernel = registry.resolve(name).unwrap();
        let got: Vec<u64> = cases
            .iter()
            .map(|&(pde, plan, q0, source)| {
                let mut out = StpOutputs::new(plan);
                let inputs = StpInputs {
                    q0,
                    dt: 0.01,
                    source,
                };
                let mut scratch = kernel.make_scratch(plan);
                kernel.run(plan, pde, scratch.as_mut(), &inputs, &mut out);
                fnv1a(&output_bits(&out))
            })
            .collect();
        let got_footprints: Vec<usize> = (2..=12)
            .map(|order| kernel.footprint_bytes(&plan_for(order, 21)))
            .collect();
        assert_eq!(got, hashes, "{name}: output hashes");
        assert_eq!(got_footprints, footprints, "{name}: footprint bytes");
    }
}
