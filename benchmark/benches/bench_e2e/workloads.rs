//! The workload table, the metric tables, and the end-to-end runner of
//! the four engine workloads (the fifth, `serve_sweep`, lives in
//! `serve.rs`).
//!
//! Every engine workload goes through the public entry point only:
//! `ScenarioRegistry::global().resolve(name).run(&RunRequest)`. One
//! repetition is one such call on a fixed problem; repetitions run back
//! to back until the `--seconds` window is full.

use crate::stats;
use aderdg_core::scenario::{RunRequest, RunSummary, Scenario, ScenarioRegistry};
use aderdg_core::{par, PipelineMode, SteppingMode};
use aderdg_mesh::BoundaryKind;
use std::time::Instant;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, better, bound)` of every end-to-end metric, in the order
/// `BENCHMARK.json` lists them. `bound` is the share of the parent's
/// median by which the metric may worsen. Definitions, and the measured
/// A/A spreads the bounds were set from, are in `benchmark/README.md`.
pub const E2E_METRICS: &[(&str, &str, Better, f64)] = &[
    ("time_to_solution_s", "s", Better::Lower, 0.25),
    ("step_wall_s", "s", Better::Lower, 0.25),
    ("cell_updates_per_s", "1/s", Better::Higher, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MiB", Better::Lower, 0.15),
    ("job_latency_p50_ms", "ms", Better::Lower, 0.25),
    ("job_latency_p90_ms", "ms", Better::Lower, 0.25),
    ("jobs_per_s", "1/s", Better::Higher, 0.25),
];

/// `setup_s` may also worsen by this much in absolute terms (`--aa`
/// applies whichever of the two is larger; `BENCHMARK.json` can only
/// carry the share).
pub const SETUP_FLOOR_S: f64 = 0.05;

/// `(name, unit, better, moves)` of every per-layer metric (`--trace 1`).
/// `moves` is the prediction written down before measuring: the metric a
/// change to this one should show up in, `on` the workloads where it
/// should (`-`: a reference value or a decision, expected to move nothing).
pub const LAYER_METRICS: &[(&str, &str, Better, &str)] = &[
    (
        "gemm.fused_gflops",
        "GFlop/s",
        Better::Higher,
        "step_wall_s on loh1_o7",
    ),
    (
        "gemm.shared_op_gflops",
        "GFlop/s",
        Better::Higher,
        "step_wall_s on elastic_log_o7_1t",
    ),
    (
        "gemm.pack_us",
        "us",
        Better::Lower,
        "setup_s on loh1_o7 elastic_log_o7_1t; job_latency_p50_ms on serve_sweep",
    ),
    (
        "stp.us_per_cell",
        "us",
        Better::Lower,
        "step_wall_s on loh1_o7 elastic_log_o7_1t",
    ),
    (
        "stp.gflops",
        "GFlop/s",
        Better::Higher,
        "step_wall_s on loh1_o7 elastic_log_o7_1t",
    ),
    (
        "stp.peak_frac",
        "1",
        Better::Higher,
        "step_wall_s on loh1_o7 elastic_log_o7_1t",
    ),
    (
        "stp.footprint_kib",
        "KiB",
        Better::Lower,
        "peak_rss_mb on elastic_log_o7_1t",
    ),
    ("stp.flops_per_byte_computed", "flop/B", Better::Higher, "-"),
    (
        "stp.share_of_step",
        "1",
        Better::Lower,
        "step_wall_s on loh1_o7 elastic_log_o7_1t",
    ),
    ("stp.generic.us_per_cell", "us", Better::Lower, "-"),
    (
        "stp.log.us_per_cell",
        "us",
        Better::Lower,
        "step_wall_s on elastic_log_o7_1t",
    ),
    ("stp.splitck.us_per_cell", "us", Better::Lower, "-"),
    (
        "stp.aosoa_splitck.us_per_cell",
        "us",
        Better::Lower,
        "step_wall_s on loh1_o7",
    ),
    ("stp.onthefly.us_per_cell", "us", Better::Lower, "-"),
    (
        "pde.userfn_ns_per_node",
        "ns",
        Better::Lower,
        "stp.us_per_cell on loh1_o7",
    ),
    (
        "tensor.transpose_us_per_cell",
        "us",
        Better::Lower,
        "stp.us_per_cell on loh1_o7",
    ),
    (
        "riemann.ns_per_face",
        "ns",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "riemann.boundary_ns_per_face",
        "ns",
        Better::Lower,
        "step_wall_s on layered_lts",
    ),
    (
        "corrector.volume_us_per_cell",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "corrector.face_us_per_cell",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "mesh.shard_plan_build_ms",
        "ms",
        Better::Lower,
        "setup_s on acoustic_o3_faces layered_lts",
    ),
    ("mesh.shards", "count", Better::Higher, "-"),
    ("mesh.faces", "count", Better::Lower, "-"),
    (
        "mesh.lts_assign_ms",
        "ms",
        Better::Lower,
        "setup_s on layered_lts",
    ),
    (
        "mesh.lts_graph_build_ms",
        "ms",
        Better::Lower,
        "setup_s on layered_lts",
    ),
    ("mesh.lts_levels", "count", Better::Higher, "-"),
    (
        "mesh.lts_work_ratio",
        "1",
        Better::Lower,
        "step_wall_s on layered_lts",
    ),
    (
        "engine.new_ms",
        "ms",
        Better::Lower,
        "setup_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts; \
         job_latency_p50_ms on serve_sweep",
    ),
    (
        "engine.set_initial_ms",
        "ms",
        Better::Lower,
        "setup_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts",
    ),
    (
        "engine.max_dt_us",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces",
    ),
    (
        "engine.step_ms_p50",
        "ms",
        Better::Lower,
        "step_wall_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts",
    ),
    (
        "engine.step_ms_p90",
        "ms",
        Better::Lower,
        "step_wall_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts",
    ),
    (
        "engine.diag_ms",
        "ms",
        Better::Lower,
        "setup_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts",
    ),
    (
        "lts.speedup_vs_global",
        "x",
        Better::Higher,
        "step_wall_s on layered_lts",
    ),
    (
        "par.graph_task_overhead_us",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "par.for_each_dispatch_us",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "par.map_max_us",
        "us",
        Better::Lower,
        "step_wall_s on acoustic_o3_faces layered_lts",
    ),
    (
        "par.scaling_eff",
        "1",
        Better::Higher,
        "cell_updates_per_s on loh1_o7 acoustic_o3_faces layered_lts",
    ),
    (
        "tune.plan_ms",
        "ms",
        Better::Lower,
        "setup_s on loh1_o7 elastic_log_o7_1t acoustic_o3_faces layered_lts; \
         job_latency_p50_ms on serve_sweep",
    ),
    ("tune.block_size", "count", Better::Higher, "-"),
    (
        "checkpoint.save_ms",
        "ms",
        Better::Lower,
        "job_latency_p90_ms on serve_sweep",
    ),
    (
        "checkpoint.load_ms",
        "ms",
        Better::Lower,
        "job_latency_p90_ms on serve_sweep",
    ),
    ("checkpoint.bytes", "B", Better::Lower, "-"),
    (
        "checkpoint.mb_per_s",
        "MB/s",
        Better::Higher,
        "job_latency_p90_ms on serve_sweep",
    ),
    (
        "jobs.queue_wait_ms_p50",
        "ms",
        Better::Lower,
        "job_latency_p50_ms on serve_sweep",
    ),
    (
        "jobs.queue_wait_ms_p90",
        "ms",
        Better::Lower,
        "job_latency_p90_ms on serve_sweep",
    ),
    ("jobs.done_share", "1", Better::Higher, "-"),
    (
        "serve.ping_rtt_us",
        "us",
        Better::Lower,
        "job_latency_p50_ms on serve_sweep",
    ),
    (
        "serve.submit_rtt_us",
        "us",
        Better::Lower,
        "jobs_per_s on serve_sweep",
    ),
    ("serve.series_bytes", "B", Better::Lower, "-"),
    ("perf.peak_gflops", "GFlop/s", Better::Higher, "-"),
    (
        "perf.achieved_peak_frac",
        "1",
        Better::Higher,
        "cell_updates_per_s on loh1_o7 elastic_log_o7_1t",
    ),
    ("trace.overhead_frac", "1", Better::Lower, "-"),
];

/// `(name, why)` of the five workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "loh1_o7",
        "paper headline: curvilinear elastic m=21, order 7, fused n=8 AoSoA panels, 2 threads; the predictor is ~2/3 of a step, so STP/GEMM/user-function work shows and scheduler work barely does",
    ),
    (
        "elastic_log_o7_1t",
        "same stp/gemm layers used differently: padded-AoS Loop-over-GEMM, wide shared-operator shapes, 4.6 MiB per-cell footprint > L2; the plain single-threaded baseline",
    ),
    (
        "acoustic_o3_faces",
        "small m, order 3, 13824 cells, 2 threads: Riemann, corrector, shard traversal and task graph share the step with the predictor over a state that streams through cache",
    ),
    (
        "layered_lts",
        "10:1 wave-speed contrast under stepping=lts, 4096 cells, 2 threads: Engine::step runs the LTS macro-cycle driver instead of the global sharded loop",
    ),
    (
        "serve_sweep",
        "closed loop, 2 clients, bursts of 4 tiny jobs (one LTS) plus pause/checkpoint/resume rounds over one pool: protocol round trips, queue wait and per-job set-up dominate; kernel speed matters little",
    ),
];

/// Which PDE medium the traced run rebuilds for a workload (the traced
/// engine steps a seeded synthetic state on the workload's mesh, order,
/// kernel and material layout — step cost does not depend on the values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    AcousticUniform,
    /// `bulk = 100` for `x < 0.25`, else 1 (the `acoustic_layered` medium).
    AcousticLayered,
    ElasticUniform,
    /// Two materials split at `z = 0.7` on a mildly sheared metric (the
    /// `loh1` layering).
    ElasticLayered,
}

/// The resolved shapes the per-layer measurements run on.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub medium: Medium,
    pub order: usize,
    pub dims: [usize; 3],
    pub kernel: &'static str,
    pub lts: bool,
    pub boundary: [BoundaryKind; 3],
}

/// Pinned outputs of one repetition (relative tolerance [`REL_TOL`]).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub steps: usize,
    pub l2_norm: f64,
    pub l2_error: Option<f64>,
}

/// Which integrals a workload conserves to [`DRIFT_BOUND`].
#[derive(Debug, Clone, Copy)]
pub enum Conserved {
    None,
    All,
    Only(usize),
}

/// FMA-width differences between hosts stay far below this.
pub const REL_TOL: f64 = 1e-6;
/// The repo's conservation contract (ROADMAP aim 3).
pub const DRIFT_BOUND: f64 = 1e-12;

#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    pub name: &'static str,
    pub scenario: &'static str,
    /// Simulated end time of one full-size repetition (the rest of the
    /// request comes from [`EngineWorkload::shape`]).
    pub t_end: f64,
    pub threads: usize,
    pub reference: Reference,
    pub smoke_reference: Reference,
    pub conserved: Conserved,
    pub shape: Shape,
}

const PERIODIC: [BoundaryKind; 3] = [BoundaryKind::Periodic; 3];

pub const ENGINE_WORKLOADS: &[EngineWorkload] = &[
    EngineWorkload {
        name: "loh1_o7",
        scenario: "loh1",
        t_end: 0.006,
        threads: 2,
        reference: Reference {
            steps: 8,
            l2_norm: 2.262620131751371e-4,
            l2_error: None,
        },
        smoke_reference: Reference {
            steps: 2,
            l2_norm: 2.249004121212796e-5,
            l2_error: None,
        },
        conserved: Conserved::None,
        shape: Shape {
            medium: Medium::ElasticLayered,
            order: 7,
            dims: [8; 3],
            kernel: "aosoa_splitck",
            lts: false,
            boundary: [
                BoundaryKind::Outflow,
                BoundaryKind::Outflow,
                BoundaryKind::Reflective,
            ],
        },
    },
    EngineWorkload {
        name: "elastic_log_o7_1t",
        scenario: "elastic_wave",
        t_end: 0.06,
        threads: 1,
        reference: Reference {
            steps: 24,
            l2_norm: 1.0384603959727963e-1,
            l2_error: Some(4.3319927293321633e-8),
        },
        smoke_reference: Reference {
            steps: 2,
            l2_norm: 1.0479823351782828e-1,
            l2_error: Some(2.2461083365973686e-3),
        },
        conserved: Conserved::All,
        shape: Shape {
            medium: Medium::ElasticUniform,
            order: 7,
            dims: [4; 3],
            kernel: "log",
            lts: false,
            boundary: PERIODIC,
        },
    },
    EngineWorkload {
        name: "acoustic_o3_faces",
        scenario: "acoustic_wave",
        t_end: 0.008625,
        threads: 2,
        reference: Reference {
            steps: 8,
            l2_norm: 9.999998514077377e-1,
            l2_error: Some(5.8414173560210556e-5),
        },
        smoke_reference: Reference {
            steps: 2,
            l2_norm: 1.0091692820727338,
            l2_error: Some(2.16292151252333e-2),
        },
        conserved: Conserved::All,
        shape: Shape {
            medium: Medium::AcousticUniform,
            order: 3,
            dims: [24; 3],
            kernel: "splitck",
            lts: false,
            boundary: PERIODIC,
        },
    },
    EngineWorkload {
        name: "layered_lts",
        scenario: "acoustic_layered",
        t_end: 0.00355,
        threads: 2,
        reference: Reference {
            steps: 4,
            l2_norm: 7.462122107899608e-2,
            l2_error: None,
        },
        smoke_reference: Reference {
            steps: 2,
            l2_norm: 6.1022956246616425e-2,
            l2_error: None,
        },
        conserved: Conserved::Only(aderdg_pde::acoustic::P),
        shape: Shape {
            medium: Medium::AcousticLayered,
            order: 4,
            dims: [16; 3],
            kernel: "splitck",
            lts: true,
            boundary: [BoundaryKind::Reflective; 3],
        },
    },
];

/// Run options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What one workload process reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)`; units come from the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples behind the timings: repetitions, or settled jobs.
    pub samples: usize,
    /// Threads the engine ran with (stamped).
    pub threads: usize,
    /// Same-run calibrated peak, where measured (stamped).
    pub peak_gflops: Option<f64>,
}

/// Threads a workload runs with: its own count, never above `nproc`.
pub fn threads_for(wanted: usize) -> usize {
    wanted.min(crate::host::nproc()).max(1)
}

impl EngineWorkload {
    /// The request of one repetition: everything set explicitly, so no
    /// process-wide default decides what runs. A smoke request leaves
    /// order, grid and step count to `smoke = true`.
    pub fn request(&self, smoke: bool) -> RunRequest {
        let shape = &self.shape;
        let mut req = RunRequest {
            smoke,
            kernel: Some(shape.kernel.to_string()),
            pipeline: Some(PipelineMode::Sharded),
            stepping: Some(if shape.lts {
                SteppingMode::Lts
            } else {
                SteppingMode::Global
            }),
            ..RunRequest::new()
        };
        if !smoke {
            // Every workload mesh is a cube.
            (req.order, req.cells, req.t_end) =
                (Some(shape.order), Some(shape.dims[0]), Some(self.t_end));
        }
        req
    }

    /// Checks one repetition's outputs against the pinned reference;
    /// returns the mismatches (empty = correct).
    pub fn check(&self, summary: &RunSummary, smoke: bool) -> Vec<String> {
        let reference = if smoke {
            &self.smoke_reference
        } else {
            &self.reference
        };
        let mut bad = Vec::new();
        if summary.paused {
            bad.push("run paused before its target".to_string());
        }
        if summary.steps != reference.steps {
            bad.push(format!(
                "steps {} != reference {}",
                summary.steps, reference.steps
            ));
        }
        if !close(summary.l2_norm, reference.l2_norm) {
            bad.push(format!(
                "l2_norm {:e} != reference {:e}",
                summary.l2_norm, reference.l2_norm
            ));
        }
        match (summary.l2_error, reference.l2_error) {
            (Some(got), Some(want)) if close(got, want) => {}
            (None, None) => {}
            (got, want) => bad.push(format!("l2_error {got:?} != reference {want:?}")),
        }
        let drift = |i: usize| (summary.integrals_final[i] - summary.integrals_initial[i]).abs();
        let worst = match self.conserved {
            Conserved::None => 0.0,
            Conserved::All => (0..summary.integrals_final.len())
                .map(drift)
                .fold(0.0, f64::max),
            Conserved::Only(i) => drift(i),
        };
        if worst.is_nan() || worst > DRIFT_BOUND {
            bad.push(format!("conservation drift {worst:e} > {DRIFT_BOUND:e}"));
        }
        bad
    }
}

/// `|a − b| ≤ REL_TOL · max(|a|, |b|)`; false for NaN.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Fewest repetitions of a run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// One repetition through the public entry point.
pub struct Repetition {
    pub summary: RunSummary,
    /// Wall time of the whole `Scenario::run` call.
    pub time_to_solution_s: f64,
}

impl Repetition {
    /// `time_to_solution_s − step_wall_s`: mesh, plan, tuner, engine,
    /// initial projection, diagnostics.
    pub fn setup_s(&self) -> f64 {
        self.time_to_solution_s - self.summary.wall_seconds
    }

    /// `num_cells × steps ÷ step_wall_s` (a step is a macro cycle under LTS).
    pub fn cell_updates_per_s(&self) -> f64 {
        (self.summary.num_cells * self.summary.steps) as f64 / self.summary.wall_seconds
    }
}

/// Resolves a workload's scenario and runs the discarded smoke-size
/// warm-up: it spins up the pool, the registries and the allocator
/// before anything is timed.
pub fn warmed_scenario(w: &EngineWorkload) -> Result<&'static dyn Scenario, String> {
    let scenario = ScenarioRegistry::global()
        .resolve(w.scenario)
        .ok_or_else(|| format!("scenario `{}` is not registered", w.scenario))?;
    scenario
        .run(&w.request(true))
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(scenario)
}

/// Runs one timed repetition of `w`.
pub fn repetition(
    scenario: &dyn Scenario,
    w: &EngineWorkload,
    smoke: bool,
) -> Result<Repetition, String> {
    let req = w.request(smoke);
    let t0 = Instant::now();
    let result = scenario.run(&req);
    let time_to_solution_s = t0.elapsed().as_secs_f64();
    Ok(Repetition {
        summary: result.map_err(|e| e.to_string())?,
        time_to_solution_s,
    })
}

/// End-to-end run of an engine workload (tracing off): repetitions, back
/// to back, until the `--seconds` window is full.
pub fn run_engine(w: &EngineWorkload, opts: &Opts) -> Result<Outcome, String> {
    let threads = threads_for(w.threads);
    par::set_num_threads(threads);
    let scenario = warmed_scenario(w)?;

    let mut reps: Vec<Repetition> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let window = Instant::now();
    while attempted < MIN_REPS || window.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        match repetition(scenario, w, opts.smoke) {
            Ok(rep) => {
                let s = &rep.summary;
                if reps.is_empty() {
                    eprintln!(
                        "  {}: {} cells, order {}, kernel {}, {}; steps={} l2_norm={:e} \
                         l2_error={:?}",
                        w.name,
                        s.num_cells,
                        s.order,
                        s.kernel,
                        s.tune,
                        s.steps,
                        s.l2_norm,
                        s.l2_error
                    );
                }
                let bad = w.check(s, opts.smoke);
                if !bad.is_empty() {
                    failed += 1;
                    eprintln!("  {}: INCORRECT: {}", w.name, bad.join("; "));
                }
                if !opts.smoke {
                    eprintln!(
                        "  {}: rep {} time_to_solution {:.4} s, stepping {:.4} s",
                        w.name,
                        reps.len(),
                        rep.time_to_solution_s,
                        s.wall_seconds
                    );
                }
                reps.push(rep);
            }
            Err(e) => {
                failed += 1;
                eprintln!("  {}: run failed: {e}", w.name);
            }
        }
    }
    if reps.is_empty() {
        return Err(format!("{}: every repetition failed", w.name));
    }
    let elapsed = window.elapsed().as_secs_f64();
    eprintln!(
        "  {}: {} repetitions in {elapsed:.2} s on {threads} thread(s)",
        w.name,
        reps.len()
    );
    // The timings are those of the fastest repetition. The reference host
    // is a shared VM whose neighbours slow the same code by up to half
    // for tens of seconds at a time; interference only ever adds time,
    // so the fastest of the window's repetitions repeats from run to run
    // where their median does not (measured spreads: README).
    let fastest = |f: fn(&Repetition) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
    let time_to_solution_s = fastest(|r| r.time_to_solution_s);
    let setup_s: Vec<f64> = reps.iter().map(Repetition::setup_s).collect();
    Ok(Outcome {
        attempted,
        failed,
        samples: reps.len(),
        metrics: vec![
            ("time_to_solution_s", time_to_solution_s),
            ("step_wall_s", fastest(|r| r.summary.wall_seconds)),
            (
                "cell_updates_per_s",
                reps.iter()
                    .map(Repetition::cell_updates_per_s)
                    .fold(0.0, f64::max),
            ),
            ("setup_s", stats::median(&setup_s)),
            (
                "peak_rss_mb",
                crate::host::peak_rss_mb().unwrap_or(f64::NAN),
            ),
            // One caller, and its job is the whole run: these three
            // restate `time_to_solution_s` (the contract wants every
            // metric on every workload).
            ("job_latency_p50_ms", time_to_solution_s * 1e3),
            ("job_latency_p90_ms", time_to_solution_s * 1e3),
            ("jobs_per_s", 1.0 / time_to_solution_s),
        ],
        threads,
        peak_gflops: None,
    })
}
