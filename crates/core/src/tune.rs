//! Plan-time autotuning: model-driven selection of the predictor block
//! size, plus the record of the GEMM kernel the plan dispatches to.
//!
//! The paper's Sec. IV ties kernel performance to whether the predictor's
//! temporaries stay cache-resident. The engine's original block-size pick
//! ([`auto_block_size`]) encoded that insight as a hard-coded budget
//! (largest `B ≤ 16` with `B · footprint ≤ 512 KiB`). This module replaces
//! the magic constant with a measurement-driven decision:
//!
//! 1. **footprint** — the kernel's block scratch defines the candidate
//!    working sets,
//! 2. **cachesim** — each candidate block size replays the kernel's block
//!    access pattern ([`trace_block_batch`]; only `aosoa_splitck` has a
//!    block body, every other kernel keeps the static heuristic because
//!    its per-cell fallback makes all block sizes equivalent) through the
//!    Skylake-SP LRU hierarchy at reduced granularity ([`CacheSim`]);
//!    misses are charged by the machine model and per-block overheads
//!    amortize with `B` ([`BlockCostModel`]),
//! 3. **plan** — the winning block size and the plan's GEMM kernel (the
//!    widest the host supports at or below the configured SIMD width) are
//!    recorded in a [`TuneReport`] the engine exposes.
//!
//! Both [`TuningMode`]s are hermetic — no wall-clock input enters the
//! decision: `static` reproduces the original heuristic exactly, `model`
//! (the default) is deterministic simulation.

use crate::engine::auto_block_size;
use crate::kernels::StpKernel;
use crate::plan::{KernelVariant, StpConfig, StpPlan};
use crate::traces::trace_block_batch;
use aderdg_pde::LinearPde;
use aderdg_perf::{BlockCostModel, CacheSim};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// How the engine picks its predictor block size at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuningMode {
    /// The original footprint heuristic ([`auto_block_size`]). Fully
    /// hermetic: no simulation — kept for CI and reproducible baselines.
    Static,
    /// Cache-simulation ranking (the default): candidate block sizes are
    /// replayed through the scaled Skylake-SP hierarchy and the cheapest
    /// predicted candidate wins. Deterministic for a fixed plan — no
    /// wall-clock input enters the decision.
    #[default]
    Model,
}

impl TuningMode {
    /// Parses the specification-file value (`static` | `model`).
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "static" => Some(TuningMode::Static),
            "model" => Some(TuningMode::Model),
            _ => None,
        }
    }

    /// The specification-file spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            TuningMode::Static => "static",
            TuningMode::Model => "model",
        }
    }
}

impl fmt::Display for TuningMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One evaluated block-size candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCandidate {
    /// Cells per predictor block.
    pub block_size: usize,
    /// Modelled block-size-dependent cycles per cell (memory stalls of
    /// the replayed miss profile plus amortized per-block overhead; the
    /// block-size-independent compute cycles are excluded).
    pub predicted_cycles_per_cell: f64,
    /// L2 miss ratio of the replayed steady state — the cache-residency
    /// signal of the paper's analysis.
    pub l2_miss_ratio: f64,
}

/// What the tuner decided and why — exposed via
/// [`Engine::tune_report`](crate::Engine::tune_report).
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The mode that produced this report.
    pub mode: TuningMode,
    /// Registry key of the tuned kernel.
    pub kernel: &'static str,
    /// The chosen predictor block size.
    pub block_size: usize,
    /// What the static footprint heuristic would have picked (always
    /// computed, for comparison).
    pub static_block_size: usize,
    /// Evaluated block-size candidates (empty when the choice was an
    /// explicit override, `static` mode, or a kernel without a block
    /// access model).
    pub block_candidates: Vec<BlockCandidate>,
    /// Name of the GEMM kernel the plan dispatches to.
    pub backend: &'static str,
}

impl fmt::Display for TuneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tune[{} mode={}]: block_size={} (static heuristic {}), gemm={}",
            self.kernel, self.mode, self.block_size, self.static_block_size, self.backend
        )?;
        if !self.block_candidates.is_empty() {
            writeln!(f, "  {:>4} {:>16} {:>10}", "B", "pred cyc/cell", "L2 miss%")?;
            for c in &self.block_candidates {
                let mark = if c.block_size == self.block_size {
                    "*"
                } else {
                    " "
                };
                writeln!(
                    f,
                    "  {:>3}{mark} {:>16.1} {:>9.1}%",
                    c.block_size,
                    c.predicted_cycles_per_cell,
                    c.l2_miss_ratio * 100.0
                )?;
            }
        }
        Ok(())
    }
}

/// Block sizes the tuner evaluates (all `≤` the engine's block-size cap).
pub const BLOCK_CANDIDATES: [usize; 5] = [1, 2, 4, 8, 16];

/// Cache-simulation granularity: one simulated line stands for 16 real
/// lines (1 KiB), keeping the plan-time replay cheap while the tuned
/// buffers (tens of KiB to MiB) still resolve sharply.
const SIM_SCALE: usize = 16;

/// Blocks replayed for the steady-state measurement (after one warm-up
/// block).
const SIM_BLOCKS: usize = 2;

/// The paper variant whose *blocked* access pattern models this kernel,
/// if it has one: only `aosoa_splitck` has a block body. Kernels running
/// the per-cell `run_block` fallback have no block-size-dependent access
/// pattern, so the model has nothing to rank and the tuner keeps the
/// static heuristic for them.
fn variant_with_block_model(kernel_name: &str) -> Option<KernelVariant> {
    match kernel_name {
        "aosoa_splitck" => Some(KernelVariant::AoSoASplitCk),
        _ => None,
    }
}

/// Costs every [`BLOCK_CANDIDATES`] entry for `kernel_name` under `plan`
/// by cache-simulated replay, or `None` if the kernel has no block access
/// model. Deterministic: repeated calls yield identical candidates.
pub fn model_block_candidates(
    plan: &StpPlan,
    kernel_name: &str,
    has_ncp: bool,
) -> Option<Vec<BlockCandidate>> {
    let variant = variant_with_block_model(kernel_name)?;
    let model = BlockCostModel::skylake_sp();
    Some(
        BLOCK_CANDIDATES
            .iter()
            .map(|&bs| {
                let mut sim = CacheSim::skylake_sp(SIM_SCALE);
                // Warm-up block: compulsory misses of the reused scratch.
                trace_block_batch(plan, variant, has_ncp, bs, 1, &mut sim);
                sim.reset_stats();
                let stages = trace_block_batch(plan, variant, has_ncp, bs, SIM_BLOCKS, &mut sim)
                    // PANIC-OK: internal invariant — the caller already
                    // checked this variant has a trace model.
                    .expect("variant has a block model");
                let stats = sim.stats();
                BlockCandidate {
                    block_size: bs,
                    predicted_cycles_per_cell: model.cycles_per_cell(
                        &stats,
                        bs * SIM_BLOCKS,
                        SIM_BLOCKS,
                        stages,
                    ),
                    l2_miss_ratio: stats.l2.miss_ratio(),
                }
            })
            .collect(),
    )
}

/// Everything the replay depends on — the memo key for
/// [`model_block_candidates`] results (engines are constructed far more
/// often than distinct plans appear, especially in tests). It holds the
/// whole [`StpConfig`], so no config field the replay reads (the flux
/// faces follow `vars`) can be left out.
type ModelKey = (&'static str, StpConfig, bool);

fn cached_model_candidates(
    plan: &StpPlan,
    kernel: &'static dyn StpKernel,
    has_ncp: bool,
) -> Option<Vec<BlockCandidate>> {
    static MEMO: Mutex<BTreeMap<ModelKey, Option<Vec<BlockCandidate>>>> =
        Mutex::new(BTreeMap::new());
    let key: ModelKey = (kernel.name(), plan.cfg, has_ncp);
    // PANIC-OK: memo poisoning means a model run panicked; cascade.
    if let Some(hit) = MEMO.lock().expect("tuner memo poisoned").get(&key) {
        return hit.clone();
    }
    let computed = model_block_candidates(plan, kernel.name(), has_ncp);
    MEMO.lock()
        // PANIC-OK: memo poisoning means a model run panicked; cascade.
        .expect("tuner memo poisoned")
        .insert(key, computed.clone());
    computed
}

/// Runs the tuner against a caller-fixed plan.
///
/// `block_override` is the engine config's explicit `block_size`: when
/// set, block-size tuning is skipped entirely (the report records the
/// override).
pub fn tune(
    plan: &StpPlan,
    kernel: &'static dyn StpKernel,
    pde: &dyn LinearPde,
    mode: TuningMode,
    block_override: Option<usize>,
) -> TuneReport {
    let static_block_size = auto_block_size(kernel.footprint_bytes(plan));
    // The slate is empty under an override or `static`, and for kernels
    // without a block access model: their per-cell fallback makes every
    // block size equivalent, so they keep the heuristic.
    let block_candidates = match (block_override, mode) {
        (None, TuningMode::Model) => {
            cached_model_candidates(plan, kernel, pde.has_ncp()).unwrap_or_default()
        }
        _ => Vec::new(),
    };
    // The model's pick is the cheapest predicted candidate (`min_by`
    // keeps the first of equal minima).
    let cheapest = block_candidates
        .iter()
        .min_by(|a, b| {
            a.predicted_cycles_per_cell
                .total_cmp(&b.predicted_cycles_per_cell)
        })
        .map(|c| c.block_size);
    let block_size = block_override.or(cheapest).unwrap_or(static_block_size);
    TuneReport {
        mode,
        kernel: kernel.name(),
        block_size,
        static_block_size,
        block_candidates,
        backend: plan.gemm_backend().name(),
    }
}

/// Builds and tunes the plan for one engine construction: [`tune`] on a
/// freshly built [`StpPlan`].
///
/// # Panics
/// If `cfg` keeps fewer flux rows than `pde` evolves (`cfg.vars <
/// pde.num_vars()`): the plan's flux faces would silently drop them.
pub fn tune_plan(
    cfg: StpConfig,
    dx: [f64; 3],
    kernel: &'static dyn StpKernel,
    pde: &dyn LinearPde,
    mode: TuningMode,
    block_override: Option<usize>,
) -> (StpPlan, TuneReport) {
    assert!(
        cfg.vars >= pde.num_vars(),
        "plan keeps {} flux rows but the PDE evolves {}",
        cfg.vars,
        pde.num_vars()
    );
    let plan = StpPlan::new(cfg, dx);
    let report = tune(&plan, kernel, pde, mode, block_override);
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::KernelRegistry;
    use aderdg_pde::{Acoustic, Elastic};
    use aderdg_tensor::Isa;

    fn plan(n: usize, m: usize) -> StpPlan {
        StpPlan::new(StpConfig::new(n, m), [0.25; 3])
    }

    #[test]
    fn tuning_mode_parses_and_displays() {
        for (s, mode) in [("static", TuningMode::Static), ("model", TuningMode::Model)] {
            assert_eq!(TuningMode::parse(s), Some(mode));
            assert_eq!(mode.to_string(), s);
        }
        assert_eq!(TuningMode::parse("magic"), None);
        assert_eq!(TuningMode::parse("probe"), None);
        assert_eq!(TuningMode::default(), TuningMode::Model);
    }

    #[test]
    fn model_candidates_cover_the_slate_and_are_deterministic() {
        let p = plan(5, 9);
        let a = model_block_candidates(&p, "aosoa_splitck", false).unwrap();
        let b = model_block_candidates(&p, "aosoa_splitck", false).unwrap();
        assert_eq!(a, b, "model mode must be deterministic");
        assert_eq!(
            a.iter().map(|c| c.block_size).collect::<Vec<_>>(),
            BLOCK_CANDIDATES.to_vec()
        );
        for c in &a {
            assert!(c.predicted_cycles_per_cell.is_finite());
            assert!((0.0..=1.0).contains(&c.l2_miss_ratio));
        }
    }

    #[test]
    fn per_cell_fallback_kernels_have_no_model() {
        let p = plan(4, 5);
        for name in ["generic", "splitck", "log", "onthefly", "no_such_kernel"] {
            assert!(model_block_candidates(&p, name, false).is_none());
        }
    }

    #[test]
    fn static_mode_reproduces_the_footprint_heuristic() {
        let p = plan(4, 5);
        for &kernel in KernelRegistry::global().kernels() {
            let report = tune(&p, kernel, &Acoustic, TuningMode::Static, None);
            assert_eq!(
                report.block_size,
                auto_block_size(kernel.footprint_bytes(&p)),
                "kernel {}",
                kernel.name()
            );
            assert!(report.block_candidates.is_empty());
        }
    }

    #[test]
    fn override_skips_block_tuning() {
        let p = plan(4, 5);
        let kernel = KernelRegistry::global().resolve("generic").unwrap();
        let report = tune(&p, kernel, &Acoustic, TuningMode::Model, Some(7));
        assert_eq!(report.block_size, 7);
        assert!(report.block_candidates.is_empty());
    }

    #[test]
    fn model_mode_picks_within_the_cap_for_blocked_kernels() {
        let p = plan(6, 21);
        let kernel = KernelRegistry::global().resolve("aosoa_splitck").unwrap();
        let report = tune(&p, kernel, &Elastic, TuningMode::Model, None);
        assert!(
            (1..=crate::engine::BLOCK_SIZE_CAP).contains(&report.block_size),
            "{}",
            report.block_size
        );
        assert_eq!(report.block_candidates.len(), BLOCK_CANDIDATES.len());
        assert_eq!(report.backend, p.gemm_backend().name());
        let level = p.cfg.width.min(Isa::detect());
        assert_eq!(report.backend, aderdg_gemm::backend_for(level).name());
    }

    #[test]
    fn model_pick_is_the_first_cheapest_candidate() {
        let kernel = KernelRegistry::global().resolve("aosoa_splitck").unwrap();
        for (n, m) in [(3, 6), (6, 21)] {
            let report = tune(&plan(n, m), kernel, &Elastic, TuningMode::Model, None);
            let costs: Vec<f64> = report
                .block_candidates
                .iter()
                .map(|c| c.predicted_cycles_per_cell)
                .collect();
            let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
            let first = costs.iter().position(|&c| c == min).unwrap();
            assert_eq!(
                report.block_size, report.block_candidates[first].block_size,
                "order {n} m {m}: {costs:?}"
            );
        }
    }

    #[test]
    fn report_displays_choice_and_candidates() {
        let p = plan(4, 5);
        let kernel = KernelRegistry::global().resolve("aosoa_splitck").unwrap();
        let report = tune(&p, kernel, &Acoustic, TuningMode::Model, None);
        let text = report.to_string();
        assert!(text.contains("tune[aosoa_splitck mode=model]"));
        assert!(text.contains("static heuristic"));
        assert!(text.contains('*'), "the chosen candidate is marked");
    }

    #[test]
    #[should_panic(expected = "plan keeps 8 flux rows but the PDE evolves 9")]
    fn a_plan_that_drops_evolved_flux_rows_is_rejected() {
        let cfg = StpConfig::new(3, Elastic.num_quantities()).with_vars(8);
        let kernel = KernelRegistry::global().resolve("splitck").unwrap();
        let _ = tune_plan(cfg, [0.25; 3], kernel, &Elastic, TuningMode::Static, None);
    }
}
