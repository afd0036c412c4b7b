//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Everything here calls public functions of one layer on the workload's
//! own resolved shapes (order, quantity count, kernel, mesh, boundary,
//! material layout, block and shard size) and times the call from the
//! outside. The engine-level spans come from a rebuilt engine stepping a
//! seeded synthetic state: the PDEs are linear and the kernels branch on
//! nothing in the data, so step cost is that of the scenario itself.

use crate::serve;
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{self, threads_for, EngineWorkload, Medium, Opts, Outcome, Shape};
use aderdg_core::block::{BlockInputs, CellBlock};
use aderdg_core::checkpoint::Checkpoint;
use aderdg_core::corrector::{apply_face, apply_volume, CorrectorScratch};
use aderdg_core::kernels::{StpInputs, StpOutputs};
use aderdg_core::mix::{stp_useful_flops, UserFunctionCost};
use aderdg_core::tune::tune_plan;
use aderdg_core::{
    boundary_face, par, rusanov_face, BoundaryScratch, Engine, EngineConfig, KernelRegistry,
    PipelineMode, SteppingMode, StpConfig, StpPlan, TuningMode,
};
use aderdg_gemm::GemmBatch;
use aderdg_mesh::{
    assign_levels, CurvilinearMap, InterfaceFittedMap, LtsGraph, ShardPlan, StructuredMesh,
    MAX_LTS_LEVEL,
};
use aderdg_pde::{Acoustic, Elastic, LinearPde, Material};
use aderdg_tensor::{aos_to_aosoa, aosoa_to_aos, Lcg};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Named values collected by the traced run.
#[derive(Debug, Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Calls `f` until `budget_s` has passed (at least `min_calls` times,
/// after one untimed warm-up call); returns the median seconds per call.
fn median_call_s(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let window = Instant::now();
    while times.len() < min_calls || window.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Like [`median_call_s`] for calls too short to time one by one: times
/// batches of `inner` calls.
fn median_call_s_batched(budget_s: f64, inner: usize, mut f: impl FnMut()) -> f64 {
    median_call_s(budget_s, 5, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded value in `[-1, 1)` for quantity `s` at position `x` — a pure
/// function, so `Engine::set_initial` can call it from any thread.
fn noise(seed: u64, x: [f64; 3], s: usize) -> f64 {
    let mut h = splitmix(seed ^ s as u64);
    for c in x {
        h = splitmix(h ^ c.to_bits());
    }
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

const LOH1_LAYER: Material = Material {
    rho: 1.0,
    cp: 1.0,
    cs: 0.58,
};
const LOH1_HALFSPACE: Material = Material {
    rho: 1.3,
    cp: 1.6,
    cs: 0.92,
};
const LOH1_MAP: InterfaceFittedMap = InterfaceFittedMap {
    plane_z: 0.75,
    interface_z: 0.7,
    bump: 0.02,
};

/// Fills one node: small seeded evolved quantities over the workload's
/// material layout (which is what the CFL field, the LTS clustering and
/// the Riemann wave speeds depend on).
fn fill_node(medium: Medium, seed: u64, x: [f64; 3], q: &mut [f64]) {
    q.fill(0.0);
    let vars = match medium {
        Medium::AcousticUniform | Medium::AcousticLayered => aderdg_pde::acoustic::VARS,
        Medium::ElasticUniform | Medium::ElasticLayered => aderdg_pde::elastic::VARS,
    };
    for s in 0..vars {
        q[s] = 0.01 * noise(seed, x, s);
    }
    match medium {
        Medium::AcousticUniform => Acoustic::set_params(q, 1.0, 1.0),
        Medium::AcousticLayered => {
            Acoustic::set_params(q, 1.0, if x[0] < 0.25 { 100.0 } else { 1.0 })
        }
        Medium::ElasticUniform => Elastic::set_params(
            q,
            Material {
                rho: 1.0,
                cp: 1.0,
                cs: 0.6,
            },
            &Elastic::IDENTITY_JAC,
        ),
        Medium::ElasticLayered => {
            let mat = if x[2] > 0.7 {
                LOH1_LAYER
            } else {
                LOH1_HALFSPACE
            };
            Elastic::set_params(q, mat, &LOH1_MAP.metric(x));
        }
    }
}

fn mesh_of(shape: &Shape) -> StructuredMesh {
    StructuredMesh::new(shape.dims, [0.0; 3], [1.0; 3], shape.boundary)
}

fn config_of(shape: &Shape, lts: bool, tuning: TuningMode) -> EngineConfig {
    EngineConfig::new(shape.order)
        .with_kernel_name(shape.kernel)
        .with_tuning(tuning)
        .with_pipeline(PipelineMode::Sharded)
        .with_stepping(if lts {
            SteppingMode::Lts
        } else {
            SteppingMode::Global
        })
}

/// One pass over the engine's public life cycle with a span around each
/// call. Returns the engine and the `(dt, seconds)` of every step.
struct Pass<P: LinearPde> {
    engine: Engine<P>,
    steps: Vec<(f64, f64)>,
    wall_s: f64,
}

fn engine_pass<P: LinearPde + Clone>(
    pde: &P,
    shape: &Shape,
    lts: bool,
    seed: u64,
    rec: &mut Recorder,
    // Stop after this many steps, or (if `None`) once the budget is spent.
    fixed_steps: Option<usize>,
    budget_s: f64,
) -> Pass<P> {
    let t0 = Instant::now();
    let (engine, steps) = rec.span("engine.run", |rec| {
        let mut engine = rec.span("engine.new", |_| {
            Engine::new(
                mesh_of(shape),
                pde.clone(),
                config_of(shape, lts, TuningMode::Model),
            )
        });
        let medium = shape.medium;
        rec.span("engine.set_initial", |_| {
            engine.set_initial(|x, q| fill_node(medium, seed, x, q))
        });
        rec.span("engine.diag", |_| {
            black_box((engine.l2_norm(), engine.integrals()));
        });
        let mut steps = Vec::new();
        let window = Instant::now();
        loop {
            let done = match fixed_steps {
                Some(n) => steps.len() >= n,
                None => steps.len() >= 3 && window.elapsed().as_secs_f64() >= budget_s,
            };
            if done || steps.len() >= 64 {
                break;
            }
            let dt = rec.span("engine.max_dt", |_| engine.max_dt());
            let s0 = Instant::now();
            rec.span("engine.step", |_| engine.step(dt));
            steps.push((dt, s0.elapsed().as_secs_f64()));
        }
        rec.span("engine.diag", |_| {
            black_box((engine.l2_norm(), engine.integrals()));
        });
        (engine, steps)
    });
    Pass {
        engine,
        steps,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Median wall seconds per unit of simulated time.
fn cost_per_sim_time(steps: &[(f64, f64)]) -> f64 {
    let per: Vec<f64> = steps.iter().map(|(dt, s)| s / dt).collect();
    stats::median(&per)
}

/// Compulsory bytes one predictor call moves: it reads `q0` and writes
/// `q̄`, the three `F̄` and the 12 face tensors. Computed from the array
/// sizes — cache misses on the temporaries are not in it.
fn stp_traffic_bytes(plan: &StpPlan) -> usize {
    8 * (5 * plan.aos.len() + 12 * plan.face.len())
}

/// Cells the kernel micro-measurements stream over: enough distinct
/// cells that inputs and per-cell outputs leave the cache as they do in
/// a step, within a 96 MiB budget.
fn stream_cells(plan: &StpPlan, num_cells: usize, block: usize) -> usize {
    let cap = (96 << 20) / stp_traffic_bytes(plan);
    let cells = num_cells.min(2048).min(cap).max(block);
    cells / block * block
}

/// Per-cell predictor seconds of `kernel` through `run_block` at block
/// size `block`, streaming over `states`; leaves the last pass's outputs
/// in `outs`.
#[allow(clippy::too_many_arguments)]
fn stp_seconds_per_cell(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    kernel: &'static dyn aderdg_core::StpKernel,
    block: usize,
    dt: f64,
    states: &[Vec<f64>],
    outs: &mut [StpOutputs],
    budget_s: f64,
) -> f64 {
    let mut scratch = kernel.make_block_scratch(plan, block);
    let mut staged = CellBlock::new(plan, block);
    let sources = vec![None; block];
    median_call_s(budget_s, 2, || {
        for (chunk, out) in states.chunks(block).zip(outs.chunks_mut(block)) {
            staged.clear();
            for q0 in chunk {
                staged.push(q0);
            }
            kernel.run_block(
                plan,
                pde,
                scratch.as_mut(),
                &BlockInputs::new(&staged, dt, &sources[..chunk.len()]),
                out,
            );
        }
    }) / states.len() as f64
}

/// The kernel, GEMM, user-function, transpose, Riemann and corrector
/// measurements on the engine's own plan and states. Returns the
/// predictor's useful flops per cell.
fn kernel_layers<P: LinearPde>(
    engine: &Engine<P>,
    shape: &Shape,
    dt: f64,
    peak_gflops: f64,
    m: &mut Metrics,
) -> f64 {
    let plan = &engine.plan;
    let pde: &dyn LinearPde = &engine.pde;
    let kernel = engine.config.kernel;
    let block = engine.block_size();
    let (n, n_pad, m_q) = (plan.n(), plan.aosoa.n_pad(), plan.m());
    let cells = stream_cells(plan, engine.mesh.num_cells(), block);
    let states: Vec<Vec<f64>> = (0..cells).map(|c| engine.cell_state(c).to_vec()).collect();
    let mut outs: Vec<StpOutputs> = (0..cells).map(|_| StpOutputs::new(plan)).collect();

    // core::kernels — the predictor as the engine drives it.
    let stp_s = stp_seconds_per_cell(plan, pde, kernel, block, dt, &states, &mut outs, 0.6);
    let cost = UserFunctionCost {
        flux_flops: pde.flux_flops(),
        ncp_flops: pde.ncp_flops(),
        vectorized: pde.has_vectorized_user_functions(),
    };
    let useful = stp_useful_flops(plan, cost) as f64;
    let gflops = useful / stp_s / 1e9;
    m.put("stp.us_per_cell", stp_s * 1e6);
    m.put("stp.gflops", gflops);
    m.put("stp.peak_frac", gflops / peak_gflops);
    m.put(
        "stp.footprint_kib",
        kernel.footprint_bytes(plan) as f64 / 1024.0,
    );
    m.put(
        "stp.flops_per_byte_computed",
        useful / stp_traffic_bytes(plan) as f64,
    );

    // gemm — the plan's own packed GEMMs on the shapes the kernels issue.
    let mut rng = Lcg::new(0x6E77);
    let fused = &plan.gemm_aosoa[0];
    let (batches, stride) = plan.aosoa_batches(0);
    let batch = GemmBatch::shared_b(block * batches, stride, stride);
    let src = rng.vec(block * plan.aosoa.len(), -1.0, 1.0);
    let mut dst = vec![0.0; src.len()];
    let fused_flops = fused.flops() as f64 * batch.count as f64;
    let inner = (2e7 / fused_flops).ceil().max(1.0) as usize;
    let s = median_call_s_batched(0.15, inner, || {
        fused.execute_batched(&batch, &src, &plan.diff_t_padded, &mut dst)
    });
    m.put("gemm.fused_gflops", fused_flops / s / 1e9);
    let wide = &plan.gemm_aos[2];
    let src = rng.vec(plan.aos.len(), -1.0, 1.0);
    let mut dst = vec![0.0; src.len()];
    let inner = (2e7 / wide.flops() as f64).ceil().max(1.0) as usize;
    let s = median_call_s_batched(0.15, inner, || {
        wide.execute(&plan.basis.diff, &src, &mut dst)
    });
    m.put("gemm.shared_op_gflops", wide.flops() as f64 / s / 1e9);
    let backend = plan.gemm_backend();
    let s = median_call_s_batched(0.05, 64, || {
        black_box(backend.pack_a(wide.spec(), &plan.basis.diff));
    });
    m.put("gemm.pack_us", s * 1e6);

    // pde — vectorised user functions on one x-line (an `m × n_pad` SoA
    // chunk of the AoSoA tensor), all three directions.
    let mut hybrid = vec![0.0; plan.aosoa.len()];
    aos_to_aosoa(&states[0], &plan.aos, &mut hybrid, &plan.aosoa);
    let line = &hybrid[..m_q * n_pad];
    let mut f_line = vec![0.0; m_q * n_pad];
    let s = median_call_s_batched(0.05, 256, || {
        for d in 0..3 {
            pde.flux_vect(d, line, &mut f_line, n, n_pad);
            if pde.has_ncp() {
                pde.ncp_vect(d, line, line, &mut f_line, n, n_pad);
            }
        }
        black_box(&f_line);
    });
    m.put("pde.userfn_ns_per_node", s * 1e9 / (3 * n) as f64);

    // tensor — one AoS→AoSoA→AoS round trip of a cell tensor.
    let mut back = vec![0.0; plan.aos.len()];
    let s = median_call_s(0.1, 3, || {
        for q0 in &states {
            aos_to_aosoa(q0, &plan.aos, &mut hybrid, &plan.aosoa);
            aosoa_to_aos(&hybrid, &plan.aosoa, &mut back, &plan.aos);
        }
        black_box(&back);
    });
    m.put("tensor.transpose_us_per_cell", s * 1e6 / cells as f64);

    // core::riemann — interior and boundary faces on the predictor's own
    // face traces.
    let mut f_star = vec![0.0; plan.face.len()];
    let s = median_call_s(0.1, 3, || {
        for c in 0..cells {
            let (lo, hi, d) = (&outs[c], &outs[(c + 1) % cells], c % 3);
            rusanov_face(
                plan,
                pde,
                d,
                &lo.qface[2 * d + 1],
                &lo.fface[2 * d + 1],
                &hi.qface[2 * d],
                &hi.fface[2 * d],
                &mut f_star,
            );
        }
        black_box(&f_star);
    });
    m.put("riemann.ns_per_face", s * 1e9 / cells as f64);
    let mut ghost = BoundaryScratch::new(plan);
    let s = median_call_s(0.1, 3, || {
        for (c, out) in outs.iter().enumerate() {
            let (d, side) = (2, c % 2);
            boundary_face(
                plan,
                pde,
                d,
                side,
                shape.boundary[d],
                &out.qface[2 * d + side],
                &out.fface[2 * d + side],
                &mut ghost,
                &mut f_star,
            );
        }
        black_box(&f_star);
    });
    m.put("riemann.boundary_ns_per_face", s * 1e9 / cells as f64);

    // core::corrector — volume term, then the six face corrections.
    let mut q = states.clone();
    let mut scratch = CorrectorScratch::new(plan);
    let s = median_call_s(0.15, 2, || {
        for (out, q) in outs.iter().zip(q.iter_mut()) {
            apply_volume(plan, pde, &mut scratch, out, q);
        }
    });
    m.put("corrector.volume_us_per_cell", s * 1e6 / cells as f64);
    let s = median_call_s(0.15, 2, || {
        for (out, q) in outs.iter().zip(q.iter_mut()) {
            for face in 0..6 {
                apply_face(plan, face / 2, face % 2, &f_star, &out.fface[face], q);
            }
        }
    });
    m.put("corrector.face_us_per_cell", s * 1e6 / cells as f64);
    useful
}

/// The paper's variant comparison: every registered predictor at order 7
/// on the `m = 21` elastic system, per-cell path.
fn kernel_ladder(seed: u64, m: &mut Metrics) {
    const LADDER: [(&str, &str); 5] = [
        ("generic", "stp.generic.us_per_cell"),
        ("log", "stp.log.us_per_cell"),
        ("splitck", "stp.splitck.us_per_cell"),
        ("aosoa_splitck", "stp.aosoa_splitck.us_per_cell"),
        ("onthefly", "stp.onthefly.us_per_cell"),
    ];
    let plan = StpPlan::new(StpConfig::new(7, Elastic.num_quantities()), [0.125; 3]);
    let (m_pad, nodes) = (plan.aos.m_pad(), plan.n().pow(3));
    let states: Vec<Vec<f64>> = (0..4)
        .map(|c| {
            let mut q = vec![0.0; plan.aos.len()];
            for node in 0..nodes {
                let x = [c as f64, node as f64 / nodes as f64, 0.8];
                fill_node(
                    Medium::ElasticLayered,
                    seed,
                    x,
                    &mut q[node * m_pad..node * m_pad + plan.m()],
                );
            }
            q
        })
        .collect();
    let mut out = StpOutputs::new(&plan);
    for (key, metric) in LADDER {
        // The five built-in kernels are always registered.
        let kernel = KernelRegistry::global()
            .resolve(key)
            .unwrap_or_else(|| panic!("kernel `{key}` is not registered"));
        let mut scratch = kernel.make_scratch(&plan);
        let s = median_call_s(0.2, 2, || {
            for q0 in &states {
                let inputs = StpInputs {
                    q0,
                    dt: 1e-3,
                    source: None,
                };
                kernel.run(&plan, &Elastic, scratch.as_mut(), &inputs, &mut out);
            }
        });
        m.put(metric, s * 1e6 / states.len() as f64);
    }
}

/// Shard-plan and LTS-clustering metrics of the mesh the engine steps.
fn mesh_layers<P: LinearPde>(engine: &Engine<P>, m: &mut Metrics) {
    let mesh = &engine.mesh;
    let plan = &engine.plan;
    let cells = mesh.num_cells();
    // The per-cell stable dt field, as `Engine` derives it from the CFL
    // condition (public pieces only).
    let dx = mesh.cell_size();
    let m_pad = plan.aos.m_pad();
    let cell_dt: Vec<f64> = (0..cells)
        .map(|c| {
            let q = engine.cell_state(c);
            let rate = (0..plan.n().pow(3))
                .map(|k| {
                    (0..3)
                        .map(|d| {
                            engine
                                .pde
                                .max_wavespeed(d, &q[k * m_pad..k * m_pad + plan.m()])
                                / dx[d]
                        })
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            engine.config.cfl / ((2.0 * plan.n() as f64 - 1.0) * rate)
        })
        .collect();
    // The traced engines always run the sharded pipeline, under either
    // stepping mode.
    let flat = engine.shard_plan().expect("sharded pipeline");
    let shard_size = flat.shard_size();
    let s = median_call_s(0.15, 3, || {
        black_box(ShardPlan::new(mesh, shard_size));
    });
    m.put("mesh.shard_plan_build_ms", s * 1e3);
    let s = median_call_s(0.15, 3, || {
        black_box(assign_levels(mesh, &cell_dt, MAX_LTS_LEVEL));
    });
    m.put("mesh.lts_assign_ms", s * 1e3);
    let levels = assign_levels(mesh, &cell_dt, MAX_LTS_LEVEL);
    let clustered = ShardPlan::with_levels(mesh, shard_size, &levels);
    let s = median_call_s(0.15, 3, || {
        black_box(LtsGraph::build(&clustered));
    });
    m.put("mesh.lts_graph_build_ms", s * 1e3);
    // What the engine actually steps with: the flat plan under global
    // stepping, the clustered one under LTS.
    let stepped = match engine.config.stepping {
        SteppingMode::Lts => engine.lts_plan(),
        SteppingMode::Global => flat,
    };
    m.put("mesh.shards", stepped.num_shards() as f64);
    m.put("mesh.faces", stepped.num_faces() as f64);
    m.put("mesh.lts_levels", clustered.num_levels() as f64);
    // The LTS bound: cell updates per macro cycle relative to stepping
    // every cell at the finest dt (computed, not measured).
    let work: f64 = levels.iter().map(|&l| 0.5f64.powi(i32::from(l))).sum();
    m.put("mesh.lts_work_ratio", work / cells as f64);
}

/// Scheduler overheads on graphs and loops shaped like the workload's.
fn par_layers<P: LinearPde>(engine: &Engine<P>, m: &mut Metrics) {
    let (indegree, dependents) = match engine.config.stepping {
        SteppingMode::Lts => {
            let graph = LtsGraph::build(engine.lts_plan());
            (graph.indegree().to_vec(), graph.dependents().to_vec())
        }
        SteppingMode::Global => {
            // predict(s) → flux(t) for s in flux_deps(t); flux(s) →
            // apply(t) for s in apply_deps(t): the sharded step's graph.
            let plan = engine.shard_plan().expect("sharded pipeline");
            let shards = plan.num_shards();
            let mut indegree = vec![0; 3 * shards];
            let mut dependents = vec![Vec::new(); 3 * shards];
            for t in 0..shards {
                for &s in plan.flux_deps(t) {
                    dependents[s].push(shards + t);
                    indegree[shards + t] += 1;
                }
                for &s in plan.apply_deps(t) {
                    dependents[shards + s].push(2 * shards + t);
                    indegree[2 * shards + t] += 1;
                }
            }
            (indegree, dependents)
        }
    };
    let tasks = indegree.len();
    let s = median_call_s(0.1, 5, || {
        par::run_graph_init(
            &indegree,
            &dependents,
            || (),
            |_, t| {
                black_box(t);
            },
        );
    });
    m.put("par.graph_task_overhead_us", s * 1e6 / tasks as f64);
    let mut items = vec![0u64; par::num_threads() * 8];
    let s = median_call_s_batched(0.05, 16, || {
        par::for_each_mut(&mut items, |i, x| *x += i as u64);
    });
    m.put("par.for_each_dispatch_us", s * 1e6);
    let values: Vec<f64> = (0..engine.mesh.num_cells()).map(|c| c as f64).collect();
    let s = median_call_s_batched(0.05, 16, || {
        black_box(par::map_max(&values, 0.0, |v| *v));
    });
    m.put("par.map_max_us", s * 1e6);
}

/// `save_state` + `Checkpoint::save`, `Checkpoint::load` + `restore_state`
/// on the engine's own state. Returns whether the round trip restored the
/// state exactly.
fn checkpoint_layers<P: LinearPde>(
    engine: &mut Engine<P>,
    out_dir: &Path,
    m: &mut Metrics,
) -> Result<bool, String> {
    let path = out_dir.join(format!("trace_{}.ckpt", std::process::id()));
    let before = engine.save_state();
    let mut save_s = Vec::new();
    let mut load_s = Vec::new();
    let mut exact = true;
    for _ in 0..2 {
        let t0 = Instant::now();
        let ck = Checkpoint {
            scenario: "bench_e2e".into(),
            smoke: false,
            knobs: Vec::new(),
            integrals_initial: Vec::new(),
            series: Vec::new(),
            engine: engine.save_state(),
        };
        ck.save(&path).map_err(|e| e.to_string())?;
        save_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let loaded = Checkpoint::load(&path).map_err(|e| e.to_string())?;
        engine
            .restore_state(&loaded.engine)
            .map_err(|e| e.to_string())?;
        load_s.push(t0.elapsed().as_secs_f64());
        exact &= engine.save_state() == before;
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let _ = std::fs::remove_file(&path);
    m.put("checkpoint.save_ms", stats::median(&save_s) * 1e3);
    m.put("checkpoint.load_ms", stats::median(&load_s) * 1e3);
    m.put("checkpoint.bytes", bytes);
    m.put("checkpoint.mb_per_s", bytes / 1e6 / stats::median(&save_s));
    Ok(exact)
}

/// Everything that needs the concrete PDE type. Returns
/// `(attempted, failed)` operations.
#[allow(clippy::too_many_arguments)]
fn engine_layers<P: LinearPde + Clone>(
    pde: P,
    shape: &Shape,
    threads: usize,
    opts: &Opts,
    out_dir: &Path,
    peak_gflops: f64,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(usize, usize), String> {
    // core::tune — what the model tuner adds to plan construction, taken
    // on this process's first plan: the replay is memoised per shape, so
    // only a job's first engine pays it.
    let cfg = StpConfig::new(shape.order, pde.num_quantities());
    let dx = mesh_of(shape).cell_size();
    // The workload table names registered kernels only.
    let kernel = KernelRegistry::global()
        .resolve(shape.kernel)
        .unwrap_or_else(|| panic!("kernel `{}` is not registered", shape.kernel));
    let t0 = Instant::now();
    black_box(tune_plan(cfg, dx, kernel, &pde, TuningMode::Model, None));
    let model_s = t0.elapsed().as_secs_f64();
    let static_s = median_call_s(0.05, 2, || {
        black_box(tune_plan(cfg, dx, kernel, &pde, TuningMode::Static, None));
    });
    m.put("tune.plan_ms", (model_s - static_s) * 1e3);

    let step_budget = if opts.smoke { 0.2 } else { 1.5 };
    // The other stepping mode on the same problem goes first: it also
    // absorbs the process's one-time costs (pool start-up, first-touch
    // page faults), so the two passes compared below start equal.
    let mut off = Recorder::new("", false);
    let other = engine_pass(
        &pde,
        shape,
        !shape.lts,
        opts.seed,
        &mut off,
        None,
        step_budget / 2.0,
    );
    let other_cost = cost_per_sim_time(&other.steps);
    drop(other);
    // The same life cycle twice — recorder off, then on, same step count:
    // the difference is the tracing overhead.
    let plain = engine_pass(
        &pde,
        shape,
        shape.lts,
        opts.seed,
        &mut off,
        None,
        step_budget,
    );
    let steps = plain.steps.len();
    drop(plain.engine);
    let traced = engine_pass(&pde, shape, shape.lts, opts.seed, rec, Some(steps), 0.0);
    eprintln!(
        "  trace: {steps} steps untraced {:.4} s, traced {:.4} s",
        plain.wall_s, traced.wall_s
    );
    m.put("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
    // Per unit of simulated time: each mode steps at its own stable dt.
    let own_cost = cost_per_sim_time(&traced.steps);
    m.put(
        "lts.speedup_vs_global",
        if shape.lts {
            other_cost / own_cost
        } else {
            own_cost / other_cost
        },
    );
    let mut engine = traced.engine;
    let finite = engine.l2_norm().is_finite();

    let step_s: Vec<f64> = traced.steps.iter().map(|(_, s)| *s).collect();
    let step_p50 = stats::median(&step_s);
    m.put(
        "engine.set_initial_ms",
        stats::median(&rec.durations_s("engine.set_initial")) * 1e3,
    );
    m.put(
        "engine.max_dt_us",
        stats::median(&rec.durations_s("engine.max_dt")) * 1e6,
    );
    m.put("engine.step_ms_p50", step_p50 * 1e3);
    m.put("engine.step_ms_p90", stats::tail(&step_s, 0.9).0 * 1e3);
    m.put(
        "engine.diag_ms",
        stats::median(&rec.durations_s("engine.diag")) * 1e3,
    );
    m.put("tune.block_size", engine.block_size() as f64);

    // core::par — 1-thread step time against the N-thread one on the same
    // engine (`threads = 1` re-measures the same thing: ≈ 1).
    par::set_num_threads(1);
    let mut serial = Vec::new();
    let window = Instant::now();
    while serial.len() < 2 || window.elapsed().as_secs_f64() < step_budget / 2.0 {
        let dt = engine.max_dt();
        let t0 = Instant::now();
        engine.step(dt);
        serial.push(t0.elapsed().as_secs_f64());
    }
    par::set_num_threads(threads);
    m.put(
        "par.scaling_eff",
        stats::median(&serial) / (threads as f64 * step_p50),
    );

    // Engine::new once more under a span: with the traced pass that makes
    // the samples `engine.new_ms` is the median of.
    drop(rec.span("engine.new", |_| {
        Engine::new(
            mesh_of(shape),
            pde.clone(),
            config_of(shape, shape.lts, TuningMode::Model),
        )
    }));
    m.put(
        "engine.new_ms",
        stats::median(&rec.durations_s("engine.new")) * 1e3,
    );

    let last_dt = traced.steps.last().map_or(1e-3, |(dt, _)| *dt);
    let useful = kernel_layers(&engine, shape, last_dt, peak_gflops, m);
    mesh_layers(&engine, m);
    par_layers(&engine, m);

    let cells = engine.mesh.num_cells() as f64;
    let step_us = step_p50 * 1e6;
    let stp_us = m.get("stp.us_per_cell");
    m.put(
        "stp.share_of_step",
        stp_us * cells / (threads as f64 * step_us),
    );
    // Predictor useful flops only (the paper's 22.5 % is the STP kernel's
    // share of peak); corrector and Riemann flops are not counted.
    m.put(
        "perf.achieved_peak_frac",
        useful * cells / (step_p50 * threads as f64 * peak_gflops * 1e9),
    );

    let exact = checkpoint_layers(&mut engine, out_dir, m)?;
    if !finite {
        eprintln!("  trace: INCORRECT: the stepped state is not finite");
    }
    if !exact {
        eprintln!("  trace: INCORRECT: checkpoint round trip changed the state");
    }
    Ok((steps + 2, usize::from(!finite) + usize::from(!exact)))
}

/// Shapes of the most common `serve_sweep` job (`acoustic_wave` at
/// gallery size), for the layer measurements of that workload.
const SERVE_SHAPE: Shape = Shape {
    medium: Medium::AcousticUniform,
    order: 5,
    dims: [3; 3],
    kernel: "splitck",
    lts: false,
    boundary: [aderdg_mesh::BoundaryKind::Periodic; 3],
};

/// What the traced run is taken on.
pub enum Traced<'a> {
    /// An engine workload: its shapes, one checked repetition through the
    /// public entry point, and a one-round smoke-size sweep as the service
    /// probe (the contract wants every per-layer metric on every workload).
    Engine(&'a EngineWorkload),
    /// `serve_sweep` itself: its most common job's shapes and a traced
    /// full-size sweep of this many seconds.
    Sweep(f64),
}

/// The traced run of one workload.
pub fn run_trace(
    workload: &str,
    traced: Traced<'_>,
    opts: &Opts,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let (shape, threads) = match &traced {
        Traced::Engine(w) => (&w.shape, w.threads),
        Traced::Sweep(_) => (&SERVE_SHAPE, serve::CLIENTS),
    };
    let threads = threads_for(threads);
    par::set_num_threads(threads);
    let mut rec = Recorder::new(workload, true);
    let mut m = Metrics::default();

    // perf — the same-run peak every `*_frac` below is taken against.
    let peak_gflops = aderdg_perf::measure_peak_gflops(if opts.smoke { 50 } else { 200 });
    m.put("perf.peak_gflops", peak_gflops);

    let (mut attempted, mut failed) = match shape.medium {
        Medium::AcousticUniform | Medium::AcousticLayered => engine_layers(
            Acoustic,
            shape,
            threads,
            opts,
            out_dir,
            peak_gflops,
            &mut rec,
            &mut m,
        )?,
        Medium::ElasticUniform | Medium::ElasticLayered => engine_layers(
            Elastic,
            shape,
            threads,
            opts,
            out_dir,
            peak_gflops,
            &mut rec,
            &mut m,
        )?,
    };
    kernel_ladder(opts.seed, &mut m);

    // core::jobs, serve — client-side spans around every protocol call.
    // Few pings: one costs ~90 ms while the server and `Client` write a
    // line in several small TCP segments.
    const PINGS: usize = 10;
    let sweep = match traced {
        Traced::Sweep(seconds) => serve::sweep(opts, seconds, PINGS, out_dir, &mut rec)?,
        Traced::Engine(_) => {
            let probe = Opts {
                smoke: true,
                ..*opts
            };
            serve::sweep(&probe, 0.0, PINGS, out_dir, &mut rec)?
        }
    };
    par::set_num_threads(threads);
    attempted += sweep.jobs;
    failed += sweep.failed;

    // One checked repetition through the public entry point: the traced
    // run verifies the workload's outputs too.
    if let Traced::Engine(w) = traced {
        let scenario = workloads::warmed_scenario(w)?;
        let rep = rec.span("run.repetition", |_| {
            workloads::repetition(scenario, w, opts.smoke)
        })?;
        attempted += 1;
        let bad = w.check(&rep.summary, opts.smoke);
        if !bad.is_empty() {
            failed += 1;
            eprintln!("  {workload}: INCORRECT: {}", bad.join("; "));
        }
    }
    m.put(
        "jobs.queue_wait_ms_p50",
        stats::median(&sweep.queue_wait_ms),
    );
    m.put(
        "jobs.queue_wait_ms_p90",
        stats::tail(&sweep.queue_wait_ms, 0.9).0,
    );
    m.put(
        "jobs.done_share",
        sweep.latency_ms.len() as f64 / sweep.jobs as f64,
    );
    m.put("serve.ping_rtt_us", stats::median(&sweep.ping_rtt_us));
    m.put("serve.submit_rtt_us", stats::median(&sweep.submit_rtt_us));
    m.put("serve.series_bytes", stats::median(&sweep.series_bytes));

    let path = out_dir.join(format!("trace_{workload}.jsonl"));
    rec.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "  {workload}: {} spans -> {}",
        rec.spans().len(),
        path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        samples: rec.spans().len(),
        metrics: m.0,
        threads,
        peak_gflops: Some(peak_gflops),
    })
}
