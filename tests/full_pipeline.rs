//! Cross-crate integration tests through the `aderdg` facade: kernels,
//! layouts, GEMM, mesh, PDEs and the engine working together.

use aderdg::core::kernels::{StpInputs, StpOutputs};
use aderdg::core::{Engine, EngineConfig, KernelRegistry, KernelVariant, StpConfig, StpPlan};
use aderdg::mesh::{CurvilinearMap, SineDeformation, StructuredMesh};
use aderdg::pde::{Elastic, ElasticPlaneWave, ExactSolution, LinearPde, Material};
use aderdg::tensor::{aos_to_aosoa, aosoa_to_aos, Isa};

/// Reproducible random padded-AoS state with elastic parameters.
fn elastic_state(plan: &StpPlan, curvilinear: bool, seed: u64) -> Vec<f64> {
    let mut rng = aderdg::tensor::Lcg::new(seed);
    let mut next = move || rng.unit();
    let m_pad = plan.aos.m_pad();
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    let map = SineDeformation { amplitude: 0.02 };
    let n = plan.n();
    let mut q = vec![0.0; plan.aos.len()];
    for k3 in 0..n {
        for k2 in 0..n {
            for k1 in 0..n {
                let k = (k3 * n + k2) * n + k1;
                for s in 0..9 {
                    q[k * m_pad + s] = next();
                }
                let jac = if curvilinear {
                    map.metric([
                        k1 as f64 / n as f64,
                        k2 as f64 / n as f64,
                        k3 as f64 / n as f64,
                    ])
                } else {
                    Elastic::IDENTITY_JAC
                };
                Elastic::set_params(&mut q[k * m_pad..k * m_pad + 21], mat, &jac);
            }
        }
    }
    q
}

#[test]
fn all_registered_kernels_agree_on_curvilinear_elastic_at_all_tested_orders() {
    // The paper's correctness contract, through the facade, with the full
    // m = 21 curvilinear configuration — over *every* registered kernel,
    // so a newly registered variant is cross-checked with zero edits.
    for order in [3, 5, 7] {
        let plan = StpPlan::new(StpConfig::new(order, 21), [0.25; 3]);
        let q0 = elastic_state(&plan, true, order as u64 * 7919);
        let inputs = StpInputs {
            q0: &q0,
            dt: 5e-4,
            source: None,
        };
        let pde = Elastic;
        let mut reference: Option<StpOutputs> = None;
        for &kernel in KernelRegistry::global().kernels() {
            let mut scratch = kernel.make_scratch(&plan);
            let mut out = StpOutputs::new(&plan);
            kernel.run(&plan, &pde, scratch.as_mut(), &inputs, &mut out);
            if let Some(r) = &reference {
                for (i, (a, b)) in out.qavg.iter().zip(r.qavg.iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-10 * (1.0 + b.abs()),
                        "{} qavg[{i}] order {order}: {a} vs {b}",
                        kernel.name()
                    );
                }
                for f in 0..6 {
                    for (a, b) in out.fface[f].iter().zip(r.fface[f].iter()) {
                        assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
                    }
                }
            } else {
                reference = Some(out.clone());
            }
        }
    }
}

#[test]
fn aosoa_transpose_roundtrip_through_kernel_layouts() {
    // tensor-crate transposes and core-crate layouts must agree on padding
    // and indexing for the exact configurations the kernels use.
    for (order, m) in [(4, 21), (8, 21), (9, 9)] {
        let plan = StpPlan::new(StpConfig::new(order, m), [1.0; 3]);
        let q0 = elastic_state(
            &StpPlan::new(StpConfig::new(order, 21), [1.0; 3]),
            false,
            42,
        );
        // Use only the first plan.aos.len() entries if m < 21.
        let mut src = vec![0.0; plan.aos.len()];
        let m_pad_src = StpPlan::new(StpConfig::new(order, 21), [1.0; 3])
            .aos
            .m_pad();
        for k in 0..order * order * order {
            for s in 0..m.min(21) {
                src[k * plan.aos.m_pad() + s] = q0[k * m_pad_src + s];
            }
        }
        let mut hybrid = vec![0.0; plan.aosoa.len()];
        aos_to_aosoa(&src, &plan.aos, &mut hybrid, &plan.aosoa);
        let mut back = vec![0.0; plan.aos.len()];
        aosoa_to_aos(&hybrid, &plan.aosoa, &mut back, &plan.aos);
        assert_eq!(src, back, "order {order} m {m}");
    }
}

#[test]
fn engine_on_curvilinear_metric_matches_identity_at_zero_deformation() {
    // A SineDeformation of amplitude 0 must reproduce the Cartesian run
    // bit-for-bit (the metric path is exercised but the values are I).
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.6,
    };
    let wave = ElasticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        polarization: [1.0, 0.0, 0.0],
        amplitude: 0.1,
        wavenumber: 1.0,
        material: mat,
    };
    let map = SineDeformation { amplitude: 0.0 };
    let run = |use_map: bool| -> f64 {
        let mesh = StructuredMesh::unit_cube(2);
        let mut engine = Engine::new(mesh, Elastic, EngineConfig::new(3));
        engine.set_initial(|x, q| {
            wave.evaluate(x, 0.0, q);
            let jac = if use_map {
                map.metric(x)
            } else {
                Elastic::IDENTITY_JAC
            };
            Elastic::set_params(q, mat, &jac);
        });
        engine.run_until(0.05);
        engine.l2_error(&wave)
    };
    let e_map = run(true);
    let e_id = run(false);
    assert!(
        (e_map - e_id).abs() < 1e-13,
        "zero deformation changed the result: {e_map} vs {e_id}"
    );
}

#[test]
fn engine_stable_on_genuinely_curvilinear_mesh() {
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.6,
    };
    let map = SineDeformation { amplitude: 0.02 };
    let mesh = StructuredMesh::unit_cube(2);
    let mut engine = Engine::new(
        mesh,
        Elastic,
        EngineConfig::new(3).with_kernel(KernelVariant::AoSoASplitCk.kernel()),
    );
    engine.set_initial(|x, q| {
        q.fill(0.0);
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2) + (x[2] - 0.5).powi(2);
        q[0] = 0.1 * (-r2 / 0.05).exp();
        Elastic::set_params(q, mat, &map.metric(x));
    });
    engine.run_until(1.0);
    let m_pad = engine.plan.aos.m_pad();
    let mx: f64 = (0..engine.mesh.num_cells())
        .flat_map(|c| {
            let q = engine.cell_state(c);
            (0..27).map(move |k| q[k * m_pad].abs())
        })
        .fold(0.0, f64::max);
    assert!(mx.is_finite() && mx < 1.0, "curvilinear run unstable: {mx}");
}

#[test]
fn scratch_footprints_match_perf_formulas_in_scaling() {
    use aderdg::perf::footprint;
    for order in [4, 6, 8, 10] {
        let plan = StpPlan::new(StpConfig::new(order, 21), [1.0; 3]);
        let gen = KernelVariant::Generic.kernel().footprint_bytes(&plan);
        let split = KernelVariant::SplitCk.kernel().footprint_bytes(&plan);
        let f_gen = footprint::generic_temporaries_bytes(order, 21);
        let f_split = footprint::splitck_temporaries_bytes(order, 21);
        // Allocated scratch tracks the analytic formula within a factor
        // ~3 (the formula omits gradQ/flux persistence details and
        // padding; the scaling — the paper's claim — must match).
        let r_gen = gen as f64 / f_gen as f64;
        let r_split = split as f64 / f_split as f64;
        assert!(
            r_gen > 0.5 && r_gen < 3.5,
            "order {order}: generic ratio {r_gen}"
        );
        assert!(
            r_split > 0.2 && r_split < 3.0,
            "order {order}: splitck ratio {r_split}"
        );
    }
}

#[test]
fn simd_width_override_keeps_results_identical() {
    // An AVX2-padded plan must produce the same numbers as an AVX-512 one.
    let pde = Elastic;
    let mut outs = Vec::new();
    for width in Isa::ALL {
        let plan = StpPlan::new(StpConfig::new(4, 21).with_width(width), [0.5; 3]);
        let q0 = elastic_state(
            &StpPlan::new(StpConfig::new(4, 21).with_width(width), [0.5; 3]),
            false,
            1234,
        );
        let kernel = KernelVariant::SplitCk.kernel();
        let mut scratch = kernel.make_scratch(&plan);
        let mut out = StpOutputs::new(&plan);
        kernel.run(
            &plan,
            &pde,
            scratch.as_mut(),
            &StpInputs {
                q0: &q0,
                dt: 1e-3,
                source: None,
            },
            &mut out,
        );
        // Compare on unpadded entries.
        let m_pad = plan.aos.m_pad();
        let vals: Vec<f64> = (0..64)
            .flat_map(|k| (0..21).map(move |s| k * m_pad + s))
            .map(|i| out.qavg[i])
            .collect();
        outs.push(vals);
    }
    for w in 1..outs.len() {
        for (a, b) in outs[w].iter().zip(&outs[0]) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }
    let _ = pde.num_quantities();
}
