//! Comparable GEMM-kernel benchmark points → `BENCH_gemm.json`.
//!
//! Appends flat JSON points (via [`aderdg_bench::points`]), each stamped
//! with the `git describe` of the tree that produced it, so future
//! sessions can add comparable numbers on other hardware:
//!
//! * per host-supported kernel of the registry: raw batched GEMM
//!   throughput on the plan's AoSoA shapes — the fused x-derivative
//!   (`C = A·Dᵀ`, shared B, row-fused) and the shared-operator slab
//!   (`C += D·B`) — for the acoustic (m = 6) and elastic (m = 21)
//!   quantity counts, and the per-cell predictor time of `aosoa_splitck`
//!   on the elastic m = 21 stress workload;
//! * on the kernel the engine selects: the best `block_sweep` point of
//!   `aosoa_splitck` and `generic` (acoustic engine, order 5, 6³ cells).
//!
//! Environment: `ADERDG_BENCH_OUT` the output path (default
//! `BENCH_gemm.json`), `ADERDG_BENCH_ORDER` the scheme order,
//! `ADERDG_SMOKE=1` shrinks every size for CI.

use aderdg_bench::block_sweep::sweep_kernel;
use aderdg_bench::points::{append_point, JsonPoint};
use aderdg_bench::{elastic_state, env_usize, M_ELASTIC};
use aderdg_core::kernels::{StpInputs, StpOutputs};
use aderdg_core::{KernelRegistry, StpConfig, StpPlan};
use aderdg_gemm::{backends, select_backend, Gemm, GemmBackend, GemmBatch, GemmSpec, Isa};
use aderdg_pde::Elastic;
use std::path::PathBuf;
use std::time::Instant;

/// Sizing knobs, shrunk under `ADERDG_SMOKE=1`.
struct Sizes {
    order: usize,
    cells_per_dim: usize,
    sweep_steps: usize,
    gemm_iters: usize,
    stp_cells: usize,
    stp_reps: usize,
    smoke: bool,
}

impl Sizes {
    fn from_env() -> Self {
        let smoke = std::env::var("ADERDG_SMOKE").is_ok_and(|v| v == "1");
        let mut sz = if smoke {
            Self {
                order: 4,
                cells_per_dim: 3,
                sweep_steps: 1,
                gemm_iters: 20,
                stp_cells: 2,
                stp_reps: 2,
                smoke,
            }
        } else {
            Self {
                order: 5,
                cells_per_dim: 6,
                sweep_steps: 3,
                gemm_iters: 400,
                stp_cells: 8,
                stp_reps: 7,
                smoke,
            }
        };
        sz.order = env_usize("ADERDG_BENCH_ORDER", sz.order);
        sz
    }
}

/// Median-of-reps seconds for one run of `body`.
fn time_median(reps: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Throughput of one batched plan shape on `backend`, in GFlop/s.
fn gemm_gflops(
    backend: &'static dyn GemmBackend,
    spec: GemmSpec,
    batch: GemmBatch,
    iters: usize,
) -> f64 {
    let gemm = Gemm::with_backend(spec, backend);
    let (la, lb, lc) = batch.required_lens(&spec);
    let mut rng = aderdg_tensor::Lcg::new(0xBE9C_0DE5);
    let a = rng.vec(la.max(1), -1.0, 1.0);
    let b = rng.vec(lb.max(1), -1.0, 1.0);
    let mut c = vec![0.0; lc.max(1)];
    let secs = time_median(5, || {
        for _ in 0..iters {
            gemm.execute_batched(&batch, &a, &b, &mut c);
        }
    });
    let flops = (2 * spec.m * spec.n * spec.k * batch.count * iters) as f64;
    flops / secs / 1e9
}

/// Per-cell predictor seconds of `aosoa_splitck` on the elastic m = 21
/// workload (the `elastic_stress` configuration, engine loop stripped)
/// with every plan GEMM on `backend`.
fn elastic_stp_us_per_cell(
    backend: &'static dyn GemmBackend,
    order: usize,
    cells: usize,
    reps: usize,
) -> f64 {
    let plan = StpPlan::with_gemm_backend(StpConfig::new(order, M_ELASTIC), [0.1; 3], backend);
    let kernel = KernelRegistry::global()
        .resolve("aosoa_splitck")
        .expect("builtin kernel");
    let pde = Elastic;
    let states: Vec<Vec<f64>> = (0..cells)
        .map(|c| elastic_state(&plan, 0x51E55 + c as u64))
        .collect();
    let mut scratch = kernel.make_scratch(&plan);
    let mut out = StpOutputs::new(&plan);
    let secs = time_median(reps, || {
        for q0 in &states {
            kernel.run(
                &plan,
                &pde,
                scratch.as_mut(),
                &StpInputs {
                    q0,
                    dt: 1e-3,
                    source: None,
                },
                &mut out,
            );
        }
    });
    secs / cells as f64 * 1e6
}

/// The fused AoSoA x-derivative shape at `order` for `m_q` quantities —
/// the spec `StpPlan` builds for `gemm_aosoa[0]` (n_pad = 8 SIMD lanes).
fn fused_shape(order: usize, m_q: usize) -> (GemmSpec, GemmBatch) {
    let nodes = order + 1;
    let spec = GemmSpec {
        m: m_q,
        n: 8,
        k: nodes,
        lda: 8,
        ldb: 8,
        ldc: 8,
        alpha: 1.0,
        beta: 0.0,
    };
    let stride = m_q * 8;
    (spec, GemmBatch::shared_b(4 * nodes * nodes, stride, stride))
}

/// The shared-operator AoSoA slab shape (`gemm_aosoa[2]`-like): one
/// small D applied to `nodes` big row-blocks.
fn slab_shape(order: usize, m_q: usize) -> (GemmSpec, GemmBatch) {
    let nodes = order + 1;
    let spec = GemmSpec::dense(nodes, nodes * m_q * 8, nodes).with_scale(1.0, 1.0);
    let (_, rb, rc) = spec.required_lens();
    (spec, GemmBatch::shared_a(nodes, rb, rc))
}

/// `git describe --always --dirty` of the working tree, so points from
/// different revisions of the kernels cannot be mistaken for each other.
fn commit_stamp() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let sz = Sizes::from_env();
    let out: PathBuf = std::env::var("ADERDG_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_gemm.json".into())
        .into();
    let commit = commit_stamp();
    let emit = |p: &JsonPoint| {
        let rendered = p.finish();
        println!("{rendered}");
        append_point(&out, &rendered).expect("write bench point");
    };
    let base = || {
        JsonPoint::new()
            .str("commit", &commit)
            .int("order", sz.order)
            .int("smoke", usize::from(sz.smoke))
    };

    println!(
        "=== bench_points: order {} at {commit} -> {} ===",
        sz.order,
        out.display()
    );

    for backend in backends().iter().copied().filter(|b| b.supported()) {
        // Raw GEMM throughput on the plan shapes.
        for (system, m_q) in [("acoustic", 6), ("elastic", M_ELASTIC)] {
            for (case, (spec, batch)) in [
                ("aosoa_d0_fused", fused_shape(sz.order, m_q)),
                ("aosoa_shared_op", slab_shape(sz.order, m_q)),
            ] {
                let gflops = gemm_gflops(backend, spec, batch, sz.gemm_iters);
                emit(
                    &base()
                        .str("kind", "gemm")
                        .str("backend", backend.name())
                        .str("system", system)
                        .str("case", case)
                        .int("m", spec.m)
                        .int("n", spec.n)
                        .int("k", spec.k)
                        .int("count", batch.count)
                        .num("gflops", gflops),
                );
            }
        }

        // Elastic stress predictor time (the paper's m = 21 workload).
        let us = elastic_stp_us_per_cell(backend, sz.order, sz.stp_cells, sz.stp_reps);
        emit(
            &base()
                .str("kind", "elastic_stp")
                .str("backend", backend.name())
                .str("kernel", "aosoa_splitck")
                .int("m", M_ELASTIC)
                .num("us_per_cell", us),
        );
    }

    // Engine block sweep on the kernel the engine selects: best point per
    // blocked STP kernel.
    let selected = select_backend(Isa::detect()).name();
    for kernel_name in ["aosoa_splitck", "generic"] {
        let kernel = KernelRegistry::global()
            .resolve(kernel_name)
            .expect("builtin kernel");
        let points = sweep_kernel(
            kernel,
            sz.order,
            sz.cells_per_dim,
            &[8, 16, 32],
            sz.sweep_steps,
        );
        let best = points
            .iter()
            .min_by(|x, y| x.us_per_cell.total_cmp(&y.us_per_cell))
            .expect("non-empty sweep");
        emit(
            &base()
                .str("kind", "block_sweep")
                .str("backend", selected)
                .str("kernel", kernel_name)
                .int("cells_per_dim", sz.cells_per_dim)
                .int("best_block", best.block_size)
                .num("us_per_cell", best.us_per_cell),
        );
    }
}
