//! Engine-level integration tests: full predictor → Riemann → corrector
//! time stepping on periodic meshes, validated against exact solutions.

use aderdg_core::{Engine, EngineConfig, KernelVariant};
use aderdg_mesh::StructuredMesh;
use aderdg_pde::{
    acoustic, elastic, Acoustic, AcousticPlaneWave, AdvectedSine, AdvectionSystem, Elastic,
    ElasticPlaneWave, ExactSolution, Material, PointSource, SourceTimeFunction,
};

fn advection_error(order: usize, cells: usize, variant: KernelVariant, t_end: f64) -> f64 {
    let mesh = StructuredMesh::unit_cube(cells);
    let pde = AdvectionSystem::new(2, [1.0, 0.5, 0.0]);
    let exact = AdvectedSine {
        n_vars: 2,
        velocity: [1.0, 0.5, 0.0],
        wave: [1.0, 0.0, 0.0],
    };
    let mut engine = Engine::new(
        mesh,
        pde,
        EngineConfig::new(order).with_kernel(variant.kernel()),
    );
    engine.set_initial(|x, q| exact.evaluate(x, 0.0, q));
    engine.run_until(t_end);
    engine.l2_error(&exact)
}

#[test]
fn advection_high_order_beats_low_order() {
    let e2 = advection_error(2, 3, KernelVariant::SplitCk, 0.1);
    let e4 = advection_error(4, 3, KernelVariant::SplitCk, 0.1);
    assert!(
        e4 < e2 / 20.0,
        "order 4 ({e4}) should be far below order 2 ({e2})"
    );
}

#[test]
fn advection_converges_under_mesh_refinement() {
    // Order 3: L2 error should drop by ~2^3 per refinement.
    let e2 = advection_error(3, 2, KernelVariant::SplitCk, 0.05);
    let e4 = advection_error(3, 4, KernelVariant::SplitCk, 0.05);
    let rate = (e2 / e4).log2();
    assert!(rate > 2.3, "observed rate {rate} (e2={e2}, e4={e4})");
}

#[test]
fn all_variants_produce_identical_evolution() {
    let errs: Vec<f64> = KernelVariant::ALL
        .iter()
        .map(|&v| advection_error(4, 2, v, 0.08))
        .collect();
    for (i, e) in errs.iter().enumerate() {
        assert!(
            (e - errs[0]).abs() < 1e-10 * (1.0 + errs[0]),
            "variant {i}: {e} vs {}",
            errs[0]
        );
    }
}

#[test]
fn acoustic_plane_wave_propagates() {
    let wave = AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(5));
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Acoustic::set_params(q, wave.rho, wave.bulk);
    });
    engine.run_until(0.2);
    let err = engine.l2_error(&wave);
    assert!(err < 1e-3, "acoustic error {err}");
}

#[test]
fn elastic_p_wave_propagates_m21() {
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
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(
        mesh,
        Elastic,
        EngineConfig::new(4).with_kernel(KernelVariant::AoSoASplitCk.kernel()),
    );
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    engine.run_until(0.15);
    let err = engine.l2_error(&wave);
    assert!(err < 5e-3, "elastic P-wave error {err}");
}

#[test]
fn elastic_s_wave_propagates() {
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.5,
    };
    let wave = ElasticPlaneWave {
        direction: [0.0, 1.0, 0.0],
        polarization: [1.0, 0.0, 0.0],
        amplitude: 0.1,
        wavenumber: 1.0,
        material: mat,
    };
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(mesh, Elastic, EngineConfig::new(4));
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    engine.run_until(0.15);
    let err = engine.l2_error(&wave);
    assert!(err < 5e-3, "elastic S-wave error {err}");
}

#[test]
fn point_source_radiates_into_receiver() {
    // Quiescent acoustic medium, Ricker source at the centre; a nearby
    // receiver must record a signal after the travel time, a far one later.
    let mesh = StructuredMesh::unit_cube(4);
    let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(4));
    engine.set_initial(|_x, q| {
        q.fill(0.0);
        Acoustic::set_params(q, 1.0, 1.0); // c = 1
    });
    // Frequency chosen so the wavelet is resolved by the mesh (~5 cells
    // per wavelength): arrival timing is then physical, not dispersive.
    engine.add_point_source(PointSource {
        position: [0.55, 0.55, 0.55],
        amplitude: vec![1.0, 0.0, 0.0, 0.0], // pressure injection
        stf: SourceTimeFunction::Ricker {
            t0: 0.35,
            frequency: 3.0,
        },
    });
    // Receiver two cells away (the source cell itself sees the projected
    // delta immediately — spectral basis — so probe a distant cell).
    let far = engine.add_receiver([0.1, 0.55, 0.55]);
    engine.run_until(1.2);
    let peak: f64 = engine.receivers[far]
        .records
        .iter()
        .map(|(_, v)| v[acoustic::P].abs())
        .fold(0.0, f64::max);
    assert!(peak > 1e-6, "receiver recorded nothing (peak {peak})");
    // Distance 0.45, c = 1, wavelet onset ≈ t0 − 1/f ≈ 0.02: the signal
    // reaches the receiver from ≈ 0.47. Well before that it must be tiny.
    let early: f64 = engine.receivers[far]
        .records
        .iter()
        .filter(|(t, _)| *t < 0.25)
        .map(|(_, v)| v[acoustic::P].abs())
        .fold(0.0, f64::max);
    assert!(
        early < peak * 0.05,
        "signal before arrival: early={early} peak={peak}"
    );
}

#[test]
fn elastic_long_run_is_stable() {
    // Coarse, under-resolved run over many periods: dispersive error is
    // allowed, blow-up is not (Rusanov + CFL keep the scheme stable).
    let mat = Material {
        rho: 1.0,
        cp: 1.0,
        cs: 0.6,
    };
    let wave = ElasticPlaneWave {
        direction: [0.6, 0.8, 0.0],
        polarization: [0.6, 0.8, 0.0],
        amplitude: 0.1,
        wavenumber: 1.0,
        material: mat,
    };
    let mesh = StructuredMesh::unit_cube(2);
    let mut engine = Engine::new(mesh, Elastic, EngineConfig::new(3));
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
    });
    let max_v0 = max_abs_var(&engine, elastic::VX);
    engine.run_until(2.0);
    let max_v1 = max_abs_var(&engine, elastic::VX);
    assert!(
        max_v1 <= max_v0 * 3.0 && max_v1.is_finite(),
        "velocity blew up: {max_v0} -> {max_v1}"
    );
}

fn max_abs_var(engine: &Engine<Elastic>, s: usize) -> f64 {
    let m_pad = engine.plan.aos.m_pad();
    let nodes = engine.plan.n().pow(3);
    (0..engine.mesh.num_cells())
        .flat_map(|c| {
            let q = engine.cell_state(c);
            (0..nodes).map(move |k| q[k * m_pad + s].abs())
        })
        .fold(0.0, f64::max)
}

#[test]
fn maxwell_plane_wave_propagates() {
    use aderdg_pde::{Maxwell, MaxwellPlaneWave};
    let wave = MaxwellPlaneWave {
        direction: [0.0, 1.0, 0.0],
        polarization: [0.0, 0.0, 1.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        epsilon: 1.0,
        mu: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(
        mesh,
        Maxwell,
        EngineConfig::new(4).with_kernel(KernelVariant::AoSoASplitCk.kernel()),
    );
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Maxwell::set_params(q, wave.epsilon, wave.mu);
    });
    engine.run_until(0.2);
    let err = engine.l2_error(&wave);
    assert!(err < 5e-3, "maxwell error {err}");
}

#[test]
fn swe_gravity_wave_propagates_with_mixed_flux_and_ncp() {
    use aderdg_pde::{LinearizedSwe, SweGravityWave};
    let wave = SweGravityWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 0.05,
        wavenumber: 1.0,
        depth: 1.0,
        gravity: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(3);
    // Exercise both computeF and computeNcp through every variant.
    for variant in KernelVariant::ALL {
        let mut engine = Engine::new(
            mesh.clone(),
            LinearizedSwe,
            EngineConfig::new(4).with_kernel(variant.kernel()),
        );
        engine.set_initial(|x, q| {
            wave.evaluate(x, 0.0, q);
            LinearizedSwe::set_params(q, wave.depth, wave.gravity);
        });
        engine.run_until(0.1);
        let err = engine.l2_error(&wave);
        assert!(err < 5e-3, "{variant:?}: swe error {err}");
    }
}

#[test]
fn receiver_records_one_sample_per_step() {
    let wave = AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(2);
    let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(3));
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Acoustic::set_params(q, 1.0, 1.0);
    });
    let id = engine.add_receiver([0.3, 0.3, 0.3]);
    engine.run_until(0.05);
    let records = &engine.receivers[id].records;
    assert!(engine.steps > 1);
    assert_eq!(records.len(), engine.steps);
    assert_eq!(records.last().unwrap().0, engine.time);
    assert!(records.iter().all(|(_, q)| q.len() == 4));
}

#[test]
fn l2_norm_is_dissipative_on_resolved_wave() {
    let wave = AcousticPlaneWave {
        direction: [1.0, 0.0, 0.0],
        amplitude: 1.0,
        wavenumber: 1.0,
        rho: 1.0,
        bulk: 1.0,
    };
    let mesh = StructuredMesh::unit_cube(2);
    let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(5));
    engine.set_initial(|x, q| {
        wave.evaluate(x, 0.0, q);
        Acoustic::set_params(q, 1.0, 1.0);
    });
    let e0 = engine.l2_norm();
    engine.run_until(0.5);
    let e1 = engine.l2_norm();
    assert!(e1 <= e0 * 1.001, "norm grew: {e0} -> {e1}");
    assert!(e1 > e0 * 0.5, "over-dissipation: {e0} -> {e1}");
}

#[test]
fn spec_file_drives_engine() {
    use aderdg_core::scenario::{resolve, RunRequest, ScenarioRegistry};
    let req = RunRequest::from_spec("order = 3\nkernel = splitck\ncfl = 0.35\n").unwrap();
    let info = ScenarioRegistry::global()
        .resolve("advection_wave")
        .unwrap()
        .info();
    let config = resolve(&info, &req).unwrap().config;
    assert_eq!((config.order, config.cfl), (3, 0.35));
    let mesh = StructuredMesh::unit_cube(2);
    let pde = AdvectionSystem::new(1, [1.0, 0.0, 0.0]);
    let exact = AdvectedSine {
        n_vars: 1,
        velocity: [1.0, 0.0, 0.0],
        wave: [1.0, 0.0, 0.0],
    };
    let mut engine = Engine::new(mesh, pde, config);
    engine.set_initial(|x, q| exact.evaluate(x, 0.0, q));
    engine.run_until(0.05);
    assert!(engine.l2_error(&exact) < 0.05);
    assert_eq!(engine.config.kernel.name(), "splitck");
}

#[test]
#[should_panic(expected = "already has a point source")]
fn colocated_point_sources_are_rejected() {
    // One rank-1 CellSource per cell: a second source in the same cell
    // cannot be superposed and must be rejected loudly, not dropped.
    use aderdg_pde::{PointSource, SourceTimeFunction};
    let mesh = StructuredMesh::unit_cube(2);
    let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(3));
    let src = |pos: [f64; 3]| PointSource {
        position: pos,
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.3,
            frequency: 2.0,
        },
    };
    engine.add_point_source(src([0.3, 0.3, 0.3]));
    engine.add_point_source(src([0.4, 0.4, 0.4])); // same cell on a 2³ mesh
}
