//! The paper-figure reproductions behind the `figures` binary: one plain
//! function per figure or table, each printing the series the paper
//! plots, plus the name → function dispatch.
//!
//! Everything runs on the paper's elastic m = 21 workload over
//! [`paper_orders`] (`ADERDG_ORDERS`), single core.

use crate::{
    calibrated_peak_gflops, elastic_state, measure_stp, paper_orders, print_header, print_row,
    Measurement, M_ELASTIC,
};
use aderdg_core::kernels::{StpInputs, StpOutputs};
use aderdg_core::mix::{full_step_pack_counts, stp_useful_flops, UserFunctionCost};
use aderdg_core::traces::steady_state_stall;
use aderdg_core::{KernelRegistry, KernelVariant, StpConfig, StpPlan};
use aderdg_gemm::{Gemm, GemmSpec};
use aderdg_pde::{Elastic, LinearPde, Material};
use aderdg_perf::footprint as footprint_model;
use aderdg_tensor::{aos_to_aosoa, aosoa_to_aos, Isa, Lcg};
use std::time::{Duration, Instant};

/// One subcommand of the `figures` binary: its name and the function
/// printing the series to stdout.
pub type Figure = (&'static str, fn());

/// Every figure, in the order `all` runs them.
pub static FIGURES: [Figure; 10] = [
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig9", fig9),
    ("fig10", fig10),
    ("speedups", speedups),
    ("footprint", footprint),
    ("onthefly", onthefly),
    ("transpose_cost", transpose_cost),
    ("calib", calib),
    ("ablation", ablation),
];

/// The `--list` text: one figure name per line.
pub fn list() -> String {
    FIGURES
        .iter()
        .map(|(name, _)| format!("{name}\n"))
        .collect()
}

/// The figures a subcommand names: `all` is every one in table order, a
/// figure name is that figure, anything else is `None`.
pub fn select(name: &str) -> Option<&'static [Figure]> {
    if name == "all" {
        return Some(&FIGURES);
    }
    let i = FIGURES.iter().position(|f| f.0 == name)?;
    Some(&FIGURES[i..=i])
}

/// Runs the `figures` command line (`<name>|all|--list`) and returns the
/// process exit code: 0 on success, 2 on a usage error.
pub fn run(args: &[String]) -> u8 {
    let selected = match args {
        [arg] if arg == "--list" => {
            print!("{}", list());
            return 0;
        }
        [name] => select(name),
        _ => None,
    };
    let Some(figures) = selected else {
        eprintln!(
            "usage: figures <name>|all|--list\n\n{}\n(got `{}`)",
            list(),
            args.join(" ")
        );
        return 2;
    };
    for (_, print) in figures {
        print();
    }
    0
}

/// [`measure_stp`] at the figures' batch size (4 cells, median of 5).
fn measure(variant: KernelVariant, order: usize, width: Isa) -> Measurement {
    measure_stp(variant, order, width, 4, 5)
}

fn print_peak_and_header(title: &str) {
    println!(
        "calibrated host peak: {:.2} GFlop/s (single core)",
        calibrated_peak_gflops()
    );
    print_header(title);
}

/// The m = 21 elastic plan at AVX-512 padding.
fn elastic_plan(order: usize) -> StpPlan {
    StpPlan::new(
        StpConfig::new(order, M_ELASTIC).with_width(Isa::Avx512),
        [0.1; 3],
    )
}

/// Mean seconds per call of `f` over `reps` calls, after one warm-up.
fn time_it(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// [`time_it`] of one predictor invocation of the registered kernel `name`.
fn time_kernel(name: &str, plan: &StpPlan, q0: &[f64], reps: usize) -> f64 {
    let kernel = KernelRegistry::global()
        .resolve(name)
        .expect("builtin kernel");
    let mut scratch = kernel.make_scratch(plan);
    let mut out = StpOutputs::new(plan);
    let inputs = StpInputs {
        q0,
        dt: 1e-3,
        source: None,
    };
    time_it(
        || kernel.run(plan, &Elastic, scratch.as_mut(), &inputs, &mut out),
        reps,
    )
}

/// Figure 4: available performance and memory-stall fraction of the
/// generic kernel vs the LoG kernel built for AVX-512 and for AVX2.
///
/// Expected shape (paper): generic plateaus at a few % of peak; both LoG
/// configurations improve with order but saturate, with AVX-512 only
/// ~1.2–1.3× over AVX2 because ≥ 41 % / 34 % of pipeline slots stall on
/// memory once the temporaries exceed the L2 (order ≥ 6).
fn fig4() {
    print_peak_and_header("Fig. 4 — generic vs LoG (AVX-512) vs LoG (AVX2), elastic m = 21");
    let mut speedups = Vec::new();
    for order in paper_orders() {
        let gen = measure(KernelVariant::Generic, order, Isa::Avx512);
        let log512 = measure(KernelVariant::LoG, order, Isa::Avx512);
        let log256 = measure(KernelVariant::LoG, order, Isa::Avx2);
        print_row(&gen);
        print_row(&log512);
        print_row(&log256);
        speedups.push((
            order,
            log256.seconds_per_cell / log512.seconds_per_cell,
            gen.seconds_per_cell / log512.seconds_per_cell,
        ));
    }
    println!(
        "\n{:>6} {:>22} {:>22}",
        "order", "LoG 512b vs 256b", "LoG 512b vs generic"
    );
    for (order, s_width, s_gen) in speedups {
        println!("{order:>6} {s_width:>21.2}x {s_gen:>21.2}x");
    }
    println!("\npaper: AVX-512 over AVX2 only 1.23–1.30x (memory stalls), not ~2x");
}

/// Figure 6: available performance and memory-stall fraction of LoG vs
/// SplitCK.
///
/// Expected shape (paper): SplitCK's stall ratio starts lower than LoG's
/// and decreases steadily with order, while LoG's plateaus ≥ 41 % and even
/// rises after order 9; SplitCK's performance keeps growing with order.
fn fig6() {
    print_peak_and_header("Fig. 6 — LoG vs SplitCK, elastic m = 21");
    for order in paper_orders() {
        print_row(&measure(KernelVariant::LoG, order, Isa::Avx512));
        print_row(&measure(KernelVariant::SplitCk, order, Isa::Avx512));
    }
    println!("\npaper: SplitCK stalls fall monotonically; LoG stalls plateau >= 41%");
}

/// Figure 9: SIMD instruction mix (fraction of FLOPs executed scalar /
/// 128-bit / 256-bit / 512-bit) for the four kernel variants.
///
/// Expected shape (paper): generic mostly scalar; LoG and SplitCK > 80 %
/// packed with ≈ 10 % scalar (pointwise user functions); AoSoA SplitCK
/// 2–4 % scalar (vectorized user functions).
fn fig9() {
    println!("=== Fig. 9 — instruction mix (fraction of flops per pack width) ===");
    println!("(whole application per cell-step: predictor + corrector + Riemann)");
    println!(
        "{:>6} {:>18} {:>9} {:>9} {:>9} {:>9}",
        "order", "variant", "scalar", "128-bit", "256-bit", "512-bit"
    );
    let cost = UserFunctionCost::elastic();
    for order in paper_orders() {
        let plan = elastic_plan(order);
        for variant in KernelVariant::ALL {
            let f = full_step_pack_counts(&plan, variant, cost).fractions();
            println!(
                "{:>6} {:>18} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                order,
                variant.kernel().label(),
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0
            );
        }
    }
    println!("\npaper: generic mostly scalar; LoG/SplitCK ~10% scalar; AoSoA 2-4% scalar");
}

/// Figure 10: available performance and memory-stall fraction of all four
/// kernel variants.
///
/// Expected shape (paper): generic plateaus ≈ 3.8 %; LoG constrained by
/// stalls from order 6; both SplitCK variants keep improving with order,
/// AoSoA SplitCK on top (22.5 % at order 11 on SuperMUC-NG — a 6× speedup
/// over generic).
fn fig10() {
    print_peak_and_header("Fig. 10 — all four STP variants, elastic m = 21");
    let mut by_order = Vec::new();
    for order in paper_orders() {
        let row = KernelVariant::ALL.map(|variant| measure(variant, order, Isa::Avx512));
        row.iter().for_each(print_row);
        by_order.push(row);
    }
    println!("\n{:>6} {:>26}", "order", "AoSoA SplitCK vs generic");
    for row in &by_order {
        let speedup = row[0].seconds_per_cell / row[3].seconds_per_cell;
        println!("{:>6} {speedup:>25.2}x", row[0].order);
    }
    println!("\npaper: ~6x at order 11; SplitCK variants keep growing with order");
}

/// Headline speedups quoted in the paper's text (Sec. III-D, VI-B): LoG
/// AVX-512 over AVX2 (expected ~1.23–1.30× rather than ~2×, because of
/// memory stalls) and AoSoA SplitCK over generic (expected ~6× at order
/// 11 on the paper's hardware).
fn speedups() {
    println!("=== Headline speedups (elastic m = 21) ===");
    println!(
        "{:>6} {:>20} {:>20} {:>22}",
        "order", "LoG 512/256 speedup", "SplitCK vs LoG", "AoSoA vs generic"
    );
    for order in paper_orders() {
        let gen = measure(KernelVariant::Generic, order, Isa::Avx512);
        let log512 = measure(KernelVariant::LoG, order, Isa::Avx512);
        let log256 = measure(KernelVariant::LoG, order, Isa::Avx2);
        let split = measure(KernelVariant::SplitCk, order, Isa::Avx512);
        let hybrid = measure(KernelVariant::AoSoASplitCk, order, Isa::Avx512);
        println!(
            "{order:>6} {:>19.2}x {:>19.2}x {:>21.2}x",
            log256.seconds_per_cell / log512.seconds_per_cell,
            log512.seconds_per_cell / split.seconds_per_cell,
            gen.seconds_per_cell / hybrid.seconds_per_cell
        );
    }
    println!("\npaper: LoG 512b/256b 1.23-1.30x; AoSoA vs generic ~6x at order 11");
}

/// Footprint table (paper Sec. IV-A, text): temporary storage of the
/// generic/LoG algorithm vs SplitCK across orders 2..=12, the analytic
/// formulas against the actually-allocated scratch, and the L2-overflow
/// order.
fn footprint() {
    println!("=== Temporary-memory footprint, m = {M_ELASTIC} (and the paper's m = 25) ===");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>16} {:>10}",
        "order", "generic(formula)", "generic(actual)", "split(formula)", "split(actual)", "ratio"
    );
    for order in 2..=12 {
        let plan = StpPlan::new(StpConfig::new(order, M_ELASTIC), [1.0; 3]);
        let gen_actual = KernelVariant::Generic.kernel().footprint_bytes(&plan);
        let split_actual = KernelVariant::SplitCk.kernel().footprint_bytes(&plan);
        let gen_f = footprint_model::generic_temporaries_bytes(order, M_ELASTIC);
        let split_f = footprint_model::splitck_temporaries_bytes(order, M_ELASTIC);
        println!(
            "{:>6} {:>13.0} KiB {:>13.0} KiB {:>13.0} KiB {:>13.0} KiB {:>9.1}x",
            order,
            gen_f as f64 / 1024.0,
            gen_actual as f64 / 1024.0,
            split_f as f64 / 1024.0,
            split_actual as f64 / 1024.0,
            gen_actual as f64 / split_actual as f64
        );
    }
    for m in [M_ELASTIC, 25] {
        match footprint_model::l2_overflow_order(m, 1024 * 1024) {
            Some(n) => {
                println!("\nm = {m}: generic temporaries exceed the 1 MiB L2 from order N = {n}")
            }
            None => println!("\nm = {m}: no overflow up to order 32"),
        }
    }
    println!("paper (m = 25): \"the 1 MB limit will be exceeded as soon as N = 6\"");
}

/// Sec. V-A ablation: three ways to call the user functions in the
/// dimension-split predictor —
///
/// 1. **SplitCK** — pointwise (scalar) user functions on AoS,
/// 2. **on-the-fly** — vectorized user functions with AoS↔SoA transposes
///    around every call (the alternative the paper tested and rejected
///    for cheap linear fluxes),
/// 3. **AoSoA SplitCK** — vectorized user functions on the hybrid layout
///    (one transpose pair per kernel invocation).
fn onthefly() {
    println!("=== Sec. V-A — user-function call strategies (elastic m = 21) ===");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>20}",
        "order", "pointwise", "on-the-fly", "AoSoA", "on-the-fly penalty"
    );
    for order in paper_orders() {
        let plan = elastic_plan(order);
        let q0 = elastic_state(&plan, 3);
        let t_split = time_kernel("splitck", &plan, &q0, 8);
        let t_hybrid = time_kernel("aosoa_splitck", &plan, &q0, 8);
        let t_otf = time_kernel("onthefly", &plan, &q0, 8);
        println!(
            "{order:>6} {:>13.1} µs {:>13.1} µs {:>13.1} µs {:>19.2}x",
            t_split * 1e6,
            t_otf * 1e6,
            t_hybrid * 1e6,
            t_otf / t_split
        );
    }
    println!("\npaper: for cheap linear user functions the per-call transposes are");
    println!("not worth it — the hybrid AoSoA layout avoids them entirely");
}

/// Transpose-overhead measurement (paper Sec. V-B): the AoS↔AoSoA entry
/// and exit transposes of the AoSoA kernel are claimed to cost little
/// compared to the kernel itself. The per-call transposes of the
/// rejected Sec. V-A alternative are timed on the real kernel by
/// [`onthefly`].
fn transpose_cost() {
    println!("=== AoS<->AoSoA transpose cost vs kernel cost (Sec. V-B) ===");
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "order", "transpose", "AoSoA kernel", "share"
    );
    for order in paper_orders() {
        let plan = elastic_plan(order);
        let q0 = elastic_state(&plan, 7);
        let mut hybrid = vec![0.0; plan.aosoa.len()];
        let mut back = vec![0.0; plan.aos.len()];

        // One entry + one exit transpose (what the kernel actually adds).
        let t_trans = time_it(
            || {
                aos_to_aosoa(&q0, &plan.aos, &mut hybrid, &plan.aosoa);
                aosoa_to_aos(&hybrid, &plan.aosoa, &mut back, &plan.aos);
            },
            20,
        );
        let t_kernel = time_kernel("aosoa_splitck", &plan, &q0, 10);
        println!(
            "{order:>6} {:>11.1} µs {:>11.1} µs {:>11.1}%",
            t_trans * 1e6,
            t_kernel * 1e6,
            t_trans / t_kernel * 100.0
        );
    }
    println!("\npaper: entry/exit transposes are minor; per-call transposes are not");
    println!("(`figures onthefly` times the per-call transposes on the real kernel)");
}

/// Calibration helper: raw cache-simulator statistics per variant at
/// orders 4/6/8/10/11, used to pick the `MachineModel` parameters.
fn calib() {
    let cost = UserFunctionCost::elastic();
    println!(
        "{:>6} {:>16} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "order", "variant", "l1acc", "l2hit", "l3hit", "dram", "flops", "stall%"
    );
    for order in [4usize, 6, 8, 10, 11] {
        let plan = StpPlan::new(StpConfig::new(order, M_ELASTIC), [1.0; 3]);
        for variant in KernelVariant::ALL {
            let cells = 4;
            let (s, stall) = steady_state_stall(&plan, variant, cost, cells);
            let flops = stp_useful_flops(&plan, cost) * cells as u64;
            println!(
                "{:>6} {:>16} {:>10} {:>10} {:>10} {:>10} {:>12} {:>7.1}%",
                order,
                variant.kernel().label(),
                s.l1.accesses(),
                s.l2.hits,
                s.l3.hits,
                s.dram,
                flops,
                stall * 100.0
            );
        }
    }
}

/// Ablations of the paper's design choices at fixed sizes:
///
/// * **padding** — padded leading dimension vs tight rows ("padding flops
///   come for free", Sec. III-A),
/// * **fusion** — one wide fused-dimension GEMM vs a loop of narrow slice
///   GEMMs for the y-derivative (Fig. 7),
/// * **userfun** — vectorized vs pointwise elastic flux on an x-line
///   (Fig. 8).
fn ablation() {
    ablation_padding();
    ablation_fusion();
    ablation_userfun();
}

/// Times `f` (median of repeated calls over ~300 ms, after warm-up) and
/// prints one aligned row: `group/label   median`.
fn bench(group: &str, label: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let mut times = Vec::new();
    let deadline = Instant::now() + Duration::from_millis(300);
    while times.len() < 10 || (Instant::now() < deadline && times.len() < 2000) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let secs = times[times.len() / 2];
    let median = if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.2} ms", secs * 1e3)
    };
    println!("{:<48} {:>12}", format!("{group}/{label}"), median);
}

fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
    Lcg::new(seed).vec(len, -0.5, 0.5)
}

fn ablation_padding() {
    // m = 21: tight rows (ld 21, unaligned vector tails) vs padded (ld 24).
    let n = 8;
    for (label, ld) in [("tight_ld21", 21usize), ("padded_ld24", 24)] {
        let spec = GemmSpec {
            m: n,
            n: 21,
            k: n,
            lda: n,
            ldb: ld,
            ldc: ld,
            alpha: 1.0,
            beta: 0.0,
        };
        let a = rand_vec(n * n, 1);
        let b = rand_vec(n * ld, 2);
        let mut out = vec![0.0; n * ld];
        let plan = Gemm::new(spec);
        bench("ablation_padding", label, || plan.execute(&a, &b, &mut out));
    }
    // Padded *and* computing the padding columns (n = 24 columns): the
    // paper's actual choice — full vectors, no masking.
    let a = rand_vec(n * n, 1);
    let b = rand_vec(n * 24, 2);
    let mut out = vec![0.0; n * 24];
    let plan = Gemm::new(GemmSpec::dense(n, 24, n));
    bench("ablation_padding", "padded_compute_pad_cols", || {
        plan.execute(&a, &b, &mut out)
    });
}

fn ablation_fusion() {
    // y-derivative over an n³ AoS tensor: fused (one GEMM of width n·m_pad
    // per k3) vs unfused (n separate GEMMs of width m_pad).
    let n = 8usize;
    let m_pad = 24usize;
    let vol = n * n * n * m_pad;
    let d = rand_vec(n * n, 3);
    let src = rand_vec(vol, 4);
    let mut dst = vec![0.0; vol];
    let spec_of_width = |width| GemmSpec {
        m: n,
        n: width,
        k: n,
        lda: n,
        ldb: n * m_pad,
        ldc: n * m_pad,
        alpha: 1.0,
        beta: 0.0,
    };

    let fused = Gemm::new(spec_of_width(n * m_pad));
    bench("ablation_fusion", "fused", || {
        for k3 in 0..n {
            let off = k3 * n * n * m_pad;
            fused.execute_offset(&d, 0, &src, off, &mut dst, off);
        }
    });

    let unfused = Gemm::new(spec_of_width(m_pad));
    bench("ablation_fusion", "unfused", || {
        for k3 in 0..n {
            for k1 in 0..n {
                let off = k3 * n * n * m_pad + k1 * m_pad;
                unfused.execute_offset(&d, 0, &src, off, &mut dst, off);
            }
        }
    });
}

fn ablation_userfun() {
    // One x-line of n = 8 nodes, m = 21 quantities: vectorized SoA call
    // (Fig. 8) vs pointwise AoS loop.
    let pde = Elastic;
    let n = 8usize;
    let stride = 8usize;
    let m = M_ELASTIC;
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    // SoA block.
    let mut q_soa = vec![0.0; m * stride];
    for i in 0..n {
        let mut node = vec![0.0; m];
        for (s, v) in node.iter_mut().enumerate().take(9) {
            *v = (s * 3 + i) as f64 * 0.01;
        }
        Elastic::set_params(&mut node, mat, &Elastic::IDENTITY_JAC);
        for s in 0..m {
            q_soa[s * stride + i] = node[s];
        }
    }
    let mut f_soa = vec![0.0; m * stride];
    bench("ablation_userfun", "vectorized_xline", || {
        for d in 0..3 {
            pde.flux_vect(d, &q_soa, &mut f_soa, n, stride);
        }
    });
    // Pointwise on the same data (AoS gather).
    let mut q_aos = vec![0.0; n * m];
    for i in 0..n {
        for s in 0..m {
            q_aos[i * m + s] = q_soa[s * stride + i];
        }
    }
    let mut f_aos = vec![0.0; n * m];
    bench("ablation_userfun", "pointwise_loop", || {
        for d in 0..3 {
            for i in 0..n {
                let (qs, fs) = (&q_aos[i * m..(i + 1) * m], &mut f_aos[i * m..(i + 1) * m]);
                pde.flux(d, qs, fs);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 10] = [
        "fig4",
        "fig6",
        "fig9",
        "fig10",
        "speedups",
        "footprint",
        "onthefly",
        "transpose_cost",
        "calib",
        "ablation",
    ];

    fn names(figures: &[Figure]) -> Vec<&'static str> {
        figures.iter().map(|f| f.0).collect()
    }

    #[test]
    fn list_names_all_ten_subcommands() {
        assert_eq!(list().lines().collect::<Vec<_>>(), NAMES);
        assert_eq!(run(&["--list".to_string()]), 0);
    }

    #[test]
    fn all_visits_each_figure_once_and_a_name_only_that_one() {
        assert_eq!(names(select("all").unwrap()), NAMES);
        for name in NAMES {
            assert_eq!(names(select(name).unwrap()), [name]);
        }
    }

    #[test]
    fn bad_command_lines_are_usage_errors_not_panics() {
        assert!(select("fig5").is_none());
        assert_eq!(run(&["fig5".to_string()]), 2);
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["fig4".to_string(), "fig6".to_string()]), 2);
    }

    #[test]
    fn a_selected_figure_runs() {
        // `footprint` is analytic (no timing, no order sweep): cheap
        // enough to drive through the real dispatch.
        assert_eq!(run(&["footprint".to_string()]), 0);
    }
}
