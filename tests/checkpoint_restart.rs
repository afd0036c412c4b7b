//! Checkpoint/restart battery: a saved engine state must restore
//! bit-identically and a paused-then-resumed run must be
//! indistinguishable — to the last bit of every DOF, series point and
//! receiver record — from one that never stopped. Exercised across
//! kernels × pipelines, because serialization must not care how the
//! bits were produced; plus rejection of corrupt files and
//! the degenerate-dt error path.

use aderdg::core::checkpoint::Checkpoint;
use aderdg::core::registry::KernelRegistry;
use aderdg::core::scenario::{
    drive, RunControl, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioInfo,
    ScenarioParts, ScenarioRegistry,
};
use aderdg::core::tune::TuningMode;
use aderdg::core::{Engine, EngineConfig, PipelineMode, SteppingMode};
use aderdg::mesh::StructuredMesh;
use aderdg::pde::{Acoustic, AdvectionSystem};
use std::path::PathBuf;
use std::sync::Arc;

fn seeded_engine(kernel: &str, pipeline: PipelineMode) -> Engine<Acoustic> {
    let config = EngineConfig::new(3)
        .with_kernel(
            KernelRegistry::global()
                .resolve(kernel)
                .unwrap_or_else(|| panic!("kernel `{kernel}` not registered")),
        )
        .with_tuning(TuningMode::Static)
        .with_pipeline(pipeline);
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(mesh, Acoustic, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 12.9898 + x[1] * 78.233 + x[2] * 37.719).sin();
        q[0] = 0.1 * s;
        q[1] = 0.05 * (x[0] * 3.0).cos();
        q[2] = 0.0;
        q[3] = 0.02 * s * s;
        Acoustic::set_params(q, 1.0 + 0.2 * x[2], 1.0);
    });
    engine.add_receiver([0.4, 0.55, 0.6]);
    engine
}

fn state_bits(engine: &Engine<Acoustic>) -> Vec<u64> {
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect()
}

/// Engine-level round trip: save mid-run, restore into a freshly built
/// engine, and both the restored state and its *future* (two more steps)
/// must be bit-identical — across two kernels and both pipelines, since
/// the codec must not care how the bits were produced.
#[test]
fn engine_state_round_trips_bit_identically_and_continues() {
    for kernel in ["generic", "aosoa_splitck"] {
        for pipeline in [PipelineMode::Barrier, PipelineMode::Sharded] {
            let label = format!("{kernel}/{pipeline:?}");
            let mut original = seeded_engine(kernel, pipeline);
            let dt = original.max_dt() * 0.5;
            original.step(dt);
            original.step(dt);
            let saved = original.save_state();

            let mut restored = seeded_engine(kernel, pipeline);
            restored.restore_state(&saved).expect("restore");
            assert_eq!(restored.time.to_bits(), original.time.to_bits(), "{label}");
            assert_eq!(restored.steps, original.steps, "{label}");
            assert_eq!(
                state_bits(&restored),
                state_bits(&original),
                "{label}: restored DOFs differ"
            );

            // The restored engine's future must match too.
            original.step(dt);
            original.step(dt);
            restored.step(dt);
            restored.step(dt);
            assert_eq!(
                state_bits(&restored),
                state_bits(&original),
                "{label}: evolution diverges after restore"
            );
            assert_eq!(
                original.receivers.len(),
                restored.receivers.len(),
                "{label}"
            );
            for (a, b) in original.receivers.iter().zip(&restored.receivers) {
                assert_eq!(a.records, b.records, "{label}: receiver traces differ");
            }
        }
    }
}

/// LTS engine-level round trip: the checkpoint must carry the
/// per-cluster clocks, and a restored engine must rebuild the identical
/// clustering from the restored state — so both the restored clocks and
/// the *future* (two more macro cycles) are bit-identical. The layered
/// bulk makes the run genuinely multi-level.
#[test]
fn lts_state_round_trips_with_cluster_clocks_and_continues() {
    let seeded = || {
        let config = EngineConfig::new(3)
            .with_tuning(TuningMode::Static)
            .with_stepping(SteppingMode::Lts);
        let mesh = StructuredMesh::new(
            [4, 3, 3],
            [0.0; 3],
            [1.0; 3],
            [aderdg::mesh::BoundaryKind::Reflective; 3],
        );
        let mut engine = Engine::new(mesh, Acoustic, config);
        engine.set_initial(|x, q| {
            q.fill(0.0);
            let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
            q[0] = (-r2 / (2.0 * 0.2 * 0.2)).exp();
            let bulk = if x[0] < 0.5 { 4.0 } else { 1.0 };
            Acoustic::set_params(q, 1.0, bulk);
        });
        engine.add_receiver([0.7, 0.5, 0.5]);
        engine
    };
    let mut original = seeded();
    let dt = original.max_dt() * 0.5;
    original.step(dt);
    original.step(dt);
    assert!(
        original.lts_clocks().len() >= 2,
        "layered medium must produce multi-level clustering"
    );
    let saved = original.save_state();

    let mut restored = seeded();
    restored.restore_state(&saved).expect("restore");
    assert_eq!(restored.steps, original.steps);
    assert_eq!(
        restored.lts_clocks().len(),
        original.lts_clocks().len(),
        "cluster clock count differs after restore"
    );
    for (level, (a, b)) in original
        .lts_clocks()
        .iter()
        .zip(restored.lts_clocks())
        .enumerate()
    {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "level {level} clock time");
        assert_eq!(a.1, b.1, "level {level} sub-step count");
    }
    assert_eq!(
        state_bits(&restored),
        state_bits(&original),
        "restored DOFs differ"
    );

    original.step(dt);
    original.step(dt);
    restored.step(dt);
    restored.step(dt);
    assert_eq!(
        state_bits(&restored),
        state_bits(&original),
        "LTS evolution diverges after restore"
    );
    for (a, b) in original.receivers.iter().zip(&restored.receivers) {
        assert_eq!(a.records, b.records, "receiver traces differ");
    }
}

fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aderdg-ckpt-{}-{label}.ckpt", std::process::id()))
}

fn base_request(kernel: &str, pipeline: &str) -> RunRequest {
    let mut req = RunRequest::smoke();
    // Static tuning skips the cache-model replay; both modes are
    // deterministic and the checkpoint pins the chosen block size anyway.
    for (key, value) in [
        ("kernel", kernel),
        ("pipeline", pipeline),
        ("tuning", "static"),
    ] {
        assert!(req.set(key, value).unwrap(), "unknown key {key}");
    }
    req
}

fn run(req: RunRequest) -> RunSummary {
    ScenarioRegistry::global()
        .resolve("acoustic_wave")
        .expect("acoustic_wave registered")
        .run(&req)
        .expect("run succeeds")
}

/// Scenario-level round trip through real files: pause at step 1 into a
/// checkpoint, resume it, and the final checkpoint must be byte-for-byte
/// identical to one saved by a run that was never interrupted — for two
/// kernels × both pipelines.
#[test]
fn paused_and_resumed_run_matches_uninterrupted_bit_for_bit() {
    for kernel in ["generic", "splitck"] {
        for pipeline in ["barrier", "sharded"] {
            let label = format!("{kernel}-{pipeline}");
            let full_ck = tmp(&format!("{label}-full"));
            let pause_ck = tmp(&format!("{label}-pause"));
            let resumed_ck = tmp(&format!("{label}-resumed"));

            // Uninterrupted reference.
            let mut req = base_request(kernel, pipeline);
            req.save_checkpoint = Some(full_ck.clone());
            let full = run(req);
            assert!(!full.paused);

            // Pause at step 1, checkpoint, resume to the end.
            let mut req = base_request(kernel, pipeline);
            req.save_checkpoint = Some(pause_ck.clone());
            let control = Arc::new(RunControl::new());
            control.pause_at_step(1);
            req.control = Some(control);
            let paused = run(req);
            assert!(paused.paused, "{label}: run did not pause");
            assert_eq!(paused.steps, 1, "{label}");

            let ck = Checkpoint::load(&pause_ck).expect("load pause checkpoint");
            let mut req = ck.to_request().expect("replay knobs");
            req.save_checkpoint = Some(resumed_ck.clone());
            req.resume = Some(Arc::new(ck));
            let resumed = run(req);
            assert!(!resumed.paused, "{label}: resume did not finish");

            let full_bytes = std::fs::read(&full_ck).unwrap();
            let resumed_bytes = std::fs::read(&resumed_ck).unwrap();
            assert_eq!(
                full_bytes, resumed_bytes,
                "{label}: resumed checkpoint differs from the uninterrupted one"
            );
            // The summaries' series agree too (same data, pre-file).
            assert_eq!(full.steps, resumed.steps, "{label}");
            for (a, b) in full.series.iter().zip(&resumed.series) {
                assert_eq!(a.t.to_bits(), b.t.to_bits(), "{label}");
                assert_eq!(a.l2_norm.to_bits(), b.l2_norm.to_bits(), "{label}");
            }
            for path in [&full_ck, &pause_ck, &resumed_ck] {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Checkpoints saved by older builds pin `rule = gauss_legendre`, the
/// one node set this build runs: such a file resumes and ends
/// byte-identical to an uninterrupted run. A `gauss_lobatto` file holds
/// DOFs at nodes this build does not have, so its replay fails naming
/// the knob.
#[test]
fn older_checkpoint_with_a_rule_knob_resumes_only_on_gauss_legendre() {
    let full_ck = tmp("rule-full");
    let pause_ck = tmp("rule-pause");
    let resumed_ck = tmp("rule-resumed");
    let mut req = base_request("splitck", "sharded");
    req.save_checkpoint = Some(full_ck.clone());
    run(req);
    let mut req = base_request("splitck", "sharded");
    req.save_checkpoint = Some(pause_ck.clone());
    let control = Arc::new(RunControl::new());
    control.pause_at_step(1);
    req.control = Some(control);
    assert!(run(req).paused);

    // Where the older builds wrote it: right after `width`.
    let mut ck = Checkpoint::load(&pause_ck).expect("load pause checkpoint");
    let at = ck.knobs.iter().position(|(k, _)| k == "width").unwrap() + 1;
    ck.knobs.insert(at, ("rule".into(), "gauss_lobatto".into()));
    let e = ck.to_request().unwrap_err();
    assert!(
        e.message
            .contains("checkpoint knob `rule = gauss_lobatto` names a node set"),
        "{e}"
    );
    ck.knobs[at].1 = "gauss_legendre".into();
    let mut req = ck.to_request().expect("replay knobs");
    req.save_checkpoint = Some(resumed_ck.clone());
    req.resume = Some(Arc::new(ck));
    assert!(!run(req).paused);
    assert_eq!(
        std::fs::read(&full_ck).unwrap(),
        std::fs::read(&resumed_ck).unwrap(),
        "resumed checkpoint differs from the uninterrupted one"
    );
    for path in [&full_ck, &pause_ck, &resumed_ck] {
        let _ = std::fs::remove_file(path);
    }
}

/// LTS scenario-level round trip through real files on the layered
/// medium: the checkpoint codec carries the per-cluster clocks, so a run
/// paused mid-way through a clustered schedule and resumed must produce
/// a checkpoint byte-for-byte identical to the uninterrupted reference.
#[test]
fn lts_paused_and_resumed_run_matches_uninterrupted_bit_for_bit() {
    let scenario = ScenarioRegistry::global()
        .resolve("acoustic_layered")
        .expect("acoustic_layered registered");
    let run = |req: RunRequest| scenario.run(&req).expect("run succeeds");
    let lts_request = || {
        let mut req = base_request("splitck", "sharded");
        assert!(req.set("stepping", "lts").unwrap(), "unknown key stepping");
        req
    };
    let full_ck = tmp("lts-full");
    let pause_ck = tmp("lts-pause");
    let resumed_ck = tmp("lts-resumed");

    // Uninterrupted reference.
    let mut req = lts_request();
    req.save_checkpoint = Some(full_ck.clone());
    let full = run(req);
    assert!(!full.paused);

    // Pause after one macro cycle, checkpoint, resume to the end.
    let mut req = lts_request();
    req.save_checkpoint = Some(pause_ck.clone());
    let control = Arc::new(RunControl::new());
    control.pause_at_step(1);
    req.control = Some(control);
    let paused = run(req);
    assert!(paused.paused, "run did not pause");
    assert_eq!(paused.steps, 1);

    let ck = Checkpoint::load(&pause_ck).expect("load pause checkpoint");
    let mut req = ck.to_request().expect("replay knobs");
    req.save_checkpoint = Some(resumed_ck.clone());
    req.resume = Some(Arc::new(ck));
    let resumed = run(req);
    assert!(!resumed.paused, "resume did not finish");

    let full_bytes = std::fs::read(&full_ck).unwrap();
    let resumed_bytes = std::fs::read(&resumed_ck).unwrap();
    assert_eq!(
        full_bytes, resumed_bytes,
        "LTS resumed checkpoint differs from the uninterrupted one"
    );
    assert_eq!(full.steps, resumed.steps);
    for (a, b) in full.series.iter().zip(&resumed.series) {
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        assert_eq!(a.l2_norm.to_bits(), b.l2_norm.to_bits());
    }
    for path in [&full_ck, &pause_ck, &resumed_ck] {
        let _ = std::fs::remove_file(path);
    }
}

/// Corrupt and truncated checkpoint files must be rejected with an
/// error — never a panic, never a silently wrong resume.
#[test]
fn corrupt_checkpoint_files_are_rejected_on_load() {
    let path = tmp("corrupt-source");
    let mut req = base_request("generic", "barrier");
    req.save_checkpoint = Some(path.clone());
    run(req);
    let good = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let bad = tmp("corrupt-mutant");
    // Truncation at several depths, including mid-header and mid-state.
    for cut in [7, good.len() / 3, good.len() - 5] {
        std::fs::write(&bad, &good[..cut]).unwrap();
        assert!(
            Checkpoint::load(&bad).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    // A flipped payload byte must fail the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&bad, &flipped).unwrap();
    assert!(Checkpoint::load(&bad).is_err(), "bit flip must be rejected");
    // Not a checkpoint at all.
    std::fs::write(&bad, b"not a checkpoint").unwrap();
    assert!(Checkpoint::load(&bad).is_err());
    let _ = std::fs::remove_file(&bad);
    assert!(Checkpoint::load(&tmp("never-written")).is_err());
}

/// A PDE whose wave speeds are infinite produces `max_dt() == 0`; both
/// drive branches (fixed smoke steps and time-targeted) must surface
/// that as a [`ScenarioError`], not a panic.
struct DegenerateScenario;

impl Scenario for DegenerateScenario {
    fn info(&self) -> ScenarioInfo {
        ScenarioInfo {
            name: "degenerate_dt",
            title: "infinite wave speed (max_dt = 0)",
            system: "advection",
            order: 2,
            cells: [2, 2, 2],
            t_end: 0.1,
            kernel: "generic",
            has_exact: false,
            smoke_cells: [2, 2, 2],
        }
    }

    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
        drive(
            &self.info(),
            req,
            |dims| StructuredMesh::unit_cube(dims[0]),
            AdvectionSystem::new(1, [f64::INFINITY, 0.0, 0.0]),
            ScenarioParts::new(|_x, q: &mut [f64], _m: &StructuredMesh| q[0] = 1.0),
        )
    }
}

#[test]
fn degenerate_dt_is_an_error_not_a_panic_on_both_branches() {
    // Fixed-steps (smoke) branch.
    let err = DegenerateScenario.run(&RunRequest::smoke()).unwrap_err();
    assert!(
        err.message.contains("degenerate time step"),
        "smoke branch: {err}"
    );
    // Time-targeted branch.
    let err = DegenerateScenario.run(&RunRequest::new()).unwrap_err();
    assert!(
        err.message.contains("degenerate time step"),
        "t_end branch: {err}"
    );
}
