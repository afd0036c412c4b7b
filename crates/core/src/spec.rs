//! Solver specification — the analogue of ExaHyPE's specification file.
//!
//! In the paper, users select the kernel variant, order and architecture
//! in a specification file; the Toolkit validates it and generates glue
//! code (Sec. II-C/D). [`SolverSpec`] plays that role: a tiny `key = value`
//! format (comments with `#`) parsed into a validated configuration the
//! engine consumes. The optimized variants are opt-in, exactly as in the
//! paper.
//!
//! ```text
//! # my_solver.spec
//! order      = 6
//! kernel     = aosoa_splitck
//! width      = avx512
//! rule       = gauss_legendre
//! cfl        = 0.4
//! block_size = auto
//! tuning     = model
//! pipeline   = sharded
//! shard_size = auto
//! ```

use crate::engine::{EngineConfig, PipelineMode, SteppingMode};
use crate::kernels::StpKernel;
use crate::registry::KernelRegistry;
use crate::tune::TuningMode;
use aderdg_quadrature::QuadratureRule;
use aderdg_tensor::SimdWidth;
use std::fmt;

/// A parse/validation error with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 for cross-field validation errors).
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parses a SIMD-width keyword (`sse`/`128`, `avx2`/`256`,
/// `avx512`/`512`, `host`) — shared by the spec-file parser and the
/// `aderdg-run` CLI.
pub fn parse_width(value: &str) -> Option<SimdWidth> {
    match value {
        "sse" | "128" => Some(SimdWidth::W2),
        "avx2" | "256" => Some(SimdWidth::W4),
        "avx512" | "512" => Some(SimdWidth::W8),
        "host" => Some(SimdWidth::host()),
        _ => None,
    }
}

/// The canonical keyword of a SIMD width (inverse of [`parse_width`]'s
/// primary spellings). `host` always resolves to a concrete width at
/// parse time, so checkpoints pin the exact padding they were saved
/// with.
pub fn width_name(width: SimdWidth) -> &'static str {
    match width {
        SimdWidth::W2 => "sse",
        SimdWidth::W4 => "avx2",
        SimdWidth::W8 => "avx512",
    }
}

/// The canonical keyword of a quadrature rule (inverse of
/// [`parse_rule`]).
pub fn rule_name(rule: QuadratureRule) -> &'static str {
    match rule {
        QuadratureRule::GaussLegendre => "gauss_legendre",
        QuadratureRule::GaussLobatto => "gauss_lobatto",
    }
}

/// Parses a quadrature-rule keyword (`gauss_legendre` | `gauss_lobatto`).
pub fn parse_rule(value: &str) -> Option<QuadratureRule> {
    match value {
        "gauss_legendre" => Some(QuadratureRule::GaussLegendre),
        "gauss_lobatto" => Some(QuadratureRule::GaussLobatto),
        _ => None,
    }
}

/// Parses an `auto`-or-positive-integer size value (`block_size`,
/// `shard_size`): `Some(None)` for `auto`, `Some(Some(n))` for `n ≥ 1`,
/// `None` for anything else.
pub fn parse_auto_size(value: &str) -> Option<Option<usize>> {
    if value == "auto" {
        return Some(None);
    }
    value.parse::<usize>().ok().filter(|&b| b >= 1).map(Some)
}

/// A validated solver configuration.
#[derive(Clone)]
pub struct SolverSpec {
    /// Scheme order (nodes per dimension), 2..=15.
    pub order: usize,
    /// STP kernel, resolved from the [`KernelRegistry`] (default:
    /// generic — optimizations are opt-in).
    pub kernel: &'static dyn StpKernel,
    /// SIMD width (default: host).
    pub width: SimdWidth,
    /// Quadrature rule (default: Gauss-Legendre).
    pub rule: QuadratureRule,
    /// CFL factor (default 0.4).
    pub cfl: f64,
    /// Predictor block size (`None` = leave the pick to the tuner, spec
    /// value `auto`).
    pub block_size: Option<usize>,
    /// Plan-time tuning strategy (`static` | `model`, default `model`).
    /// `static` reproduces the original footprint heuristic.
    pub tuning: TuningMode,
    /// Step pipeline (`barrier` | `sharded`, default `sharded`). `sharded` solves
    /// each interior face's Riemann problem once and pipelines shards
    /// with no global barrier; `barrier` is the seed cell-centric
    /// baseline.
    pub pipeline: PipelineMode,
    /// Cells per shard of the sharded pipeline (`None` = automatic, spec
    /// value `auto`).
    pub shard_size: Option<usize>,
    /// Time-stepping strategy (`global` | `lts`, default `global`). `lts` runs
    /// clustered local time stepping — coarse dt-clusters take fewer,
    /// longer sub-steps per macro cycle.
    pub stepping: SteppingMode,
}

impl std::fmt::Debug for SolverSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverSpec")
            .field("order", &self.order)
            .field("kernel", &self.kernel.name())
            .field("width", &self.width)
            .field("rule", &self.rule)
            .field("cfl", &self.cfl)
            .field("block_size", &self.block_size)
            .field("tuning", &self.tuning)
            .field("pipeline", &self.pipeline)
            .field("shard_size", &self.shard_size)
            .field("stepping", &self.stepping)
            .finish()
    }
}

impl PartialEq for SolverSpec {
    fn eq(&self, other: &Self) -> bool {
        // Kernels compare by registry key (unique by construction);
        // pointer identity of `&dyn` is unreliable across codegen units.
        self.order == other.order
            && self.kernel.name() == other.kernel.name()
            && self.width == other.width
            && self.rule == other.rule
            && self.cfl == other.cfl
            && self.block_size == other.block_size
            && self.tuning == other.tuning
            && self.pipeline == other.pipeline
            && self.shard_size == other.shard_size
            && self.stepping == other.stepping
    }
}

impl Default for SolverSpec {
    fn default() -> Self {
        Self {
            order: 4,
            kernel: KernelRegistry::global()
                .resolve("generic")
                // PANIC-OK: internal invariant — builtins register at
                // startup.
                .expect("builtin kernels are always registered"),
            width: SimdWidth::host(),
            rule: QuadratureRule::GaussLegendre,
            cfl: 0.4,
            block_size: None,
            tuning: TuningMode::default(),
            pipeline: PipelineMode::Sharded,
            shard_size: None,
            stepping: SteppingMode::Global,
        }
    }
}

impl SolverSpec {
    /// Parses the `key = value` format; unknown keys and malformed values
    /// are errors (the Toolkit rejects invalid specification files).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = SolverSpec::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let err = |message: String| SpecError {
                line: line_no,
                message,
            };
            match key {
                "order" => {
                    spec.order = value
                        .parse()
                        .map_err(|_| err(format!("invalid order `{value}`")))?;
                }
                "kernel" => {
                    spec.kernel = KernelRegistry::global().resolve(value).ok_or_else(|| {
                        err(format!(
                            "unknown kernel `{value}` ({})",
                            KernelRegistry::global().names().join("|")
                        ))
                    })?;
                }
                "width" => {
                    spec.width = parse_width(value).ok_or_else(|| {
                        err(format!("unknown width `{value}` (sse|avx2|avx512|host)"))
                    })?;
                }
                "rule" => {
                    spec.rule = parse_rule(value).ok_or_else(|| {
                        err(format!(
                            "unknown rule `{value}` (gauss_legendre|gauss_lobatto)"
                        ))
                    })?;
                }
                "cfl" => {
                    spec.cfl = value
                        .parse()
                        .map_err(|_| err(format!("invalid cfl `{value}`")))?;
                }
                "block_size" => {
                    spec.block_size = parse_auto_size(value).ok_or_else(|| {
                        err(format!(
                            "invalid block_size `{value}` (auto or integer >= 1)"
                        ))
                    })?;
                }
                "tuning" => {
                    spec.tuning = TuningMode::parse(value)
                        .ok_or_else(|| err(format!("unknown tuning `{value}` (static|model)")))?;
                }
                "pipeline" => {
                    spec.pipeline = PipelineMode::parse(value).ok_or_else(|| {
                        err(format!("unknown pipeline `{value}` (barrier|sharded)"))
                    })?;
                }
                "shard_size" => {
                    spec.shard_size = parse_auto_size(value).ok_or_else(|| {
                        err(format!(
                            "invalid shard_size `{value}` (auto or integer >= 1)"
                        ))
                    })?;
                }
                "stepping" => {
                    spec.stepping = SteppingMode::parse(value)
                        .ok_or_else(|| err(format!("unknown stepping `{value}` (global|lts)")))?;
                }
                other => {
                    return Err(err(format!("unknown key `{other}`")));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        let fail = |message: String| SpecError { line: 0, message };
        if !(2..=15).contains(&self.order) {
            return Err(fail(format!("order {} outside 2..=15", self.order)));
        }
        if !(self.cfl > 0.0 && self.cfl <= 0.45) {
            return Err(fail(format!(
                "cfl {} outside (0, 0.45] (empirical 3-D stability limit)",
                self.cfl
            )));
        }
        Ok(())
    }

    /// The engine configuration this spec describes.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.order)
            .with_kernel(self.kernel)
            .with_rule(self.rule)
            .with_width(self.width);
        cfg.cfl = self.cfl;
        cfg.block_size = self.block_size;
        cfg.tuning = self.tuning;
        cfg.pipeline = self.pipeline;
        cfg.shard_size = self.shard_size;
        cfg.stepping = self.stepping;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = SolverSpec::parse(
            "# benchmark setup\n\
             order  = 6\n\
             kernel = aosoa_splitck  # the Sec. V variant\n\
             width  = avx512\n\
             rule   = gauss_lobatto\n\
             cfl    = 0.3\n\
             block_size = 8\n",
        )
        .unwrap();
        assert_eq!(spec.order, 6);
        assert_eq!(spec.kernel.name(), "aosoa_splitck");
        assert_eq!(spec.width, SimdWidth::W8);
        assert_eq!(spec.rule, QuadratureRule::GaussLobatto);
        assert_eq!(spec.cfl, 0.3);
        assert_eq!(spec.block_size, Some(8));
        assert_eq!(spec.engine_config().order, 6);
        assert_eq!(spec.engine_config().block_size, Some(8));
    }

    #[test]
    fn tuning_parses_defaults_to_model_and_rejects_unknown() {
        assert_eq!(
            SolverSpec::parse("order = 4\n").unwrap().tuning,
            TuningMode::Model
        );
        for (text, mode) in [
            ("tuning = static\n", TuningMode::Static),
            ("tuning = model\n", TuningMode::Model),
        ] {
            let spec = SolverSpec::parse(text).unwrap();
            assert_eq!(spec.tuning, mode);
            assert_eq!(spec.engine_config().tuning, mode);
        }
        for text in ["tuning = lucky\n", "tuning = probe\n"] {
            let e = SolverSpec::parse(text).unwrap_err();
            assert!(e.message.contains("(static|model)"), "{}", e.message);
        }
    }

    #[test]
    fn pipeline_parses_and_rejects_unknown() {
        for (text, mode) in [
            ("pipeline = barrier\n", PipelineMode::Barrier),
            ("pipeline = sharded\n", PipelineMode::Sharded),
        ] {
            let spec = SolverSpec::parse(text).unwrap();
            assert_eq!(spec.pipeline, mode);
            assert_eq!(spec.engine_config().pipeline, mode);
        }
        let e = SolverSpec::parse("pipeline = warp\n").unwrap_err();
        assert!(e.message.contains("barrier|sharded"));
    }

    #[test]
    fn stepping_parses_and_rejects_unknown() {
        for (text, mode) in [
            ("stepping = global\n", SteppingMode::Global),
            ("stepping = lts\n", SteppingMode::Lts),
        ] {
            let spec = SolverSpec::parse(text).unwrap();
            assert_eq!(spec.stepping, mode);
            assert_eq!(spec.engine_config().stepping, mode);
        }
        let e = SolverSpec::parse("stepping = warp\n").unwrap_err();
        assert!(e.message.contains("global|lts"));
    }

    #[test]
    fn shard_size_auto_and_rejects_invalid() {
        assert_eq!(
            SolverSpec::parse("shard_size = auto\n").unwrap().shard_size,
            None
        );
        assert_eq!(
            SolverSpec::parse("shard_size = 12\n").unwrap().shard_size,
            Some(12)
        );
        assert_eq!(
            SolverSpec::parse("shard_size = 12\n")
                .unwrap()
                .engine_config()
                .shard_size,
            Some(12)
        );
        assert!(SolverSpec::parse("shard_size = 0\n").is_err());
        assert!(SolverSpec::parse("shard_size = many\n").is_err());
    }

    #[test]
    fn block_size_auto_and_rejects_invalid() {
        assert_eq!(
            SolverSpec::parse("block_size = auto\n").unwrap().block_size,
            None
        );
        assert!(SolverSpec::parse("block_size = 0\n").is_err());
        assert!(SolverSpec::parse("block_size = wide\n").is_err());
    }

    #[test]
    fn defaults_are_generic_and_opt_in() {
        let spec = SolverSpec::parse("order = 5\n").unwrap();
        assert_eq!(spec.kernel.name(), "generic");
        assert_eq!(spec.cfl, 0.4);
    }

    #[test]
    fn rejects_unknown_kernel() {
        let e = SolverSpec::parse("kernel = turbo\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown kernel"));
    }

    #[test]
    fn rejects_unknown_key_and_bad_syntax() {
        assert!(SolverSpec::parse("colour = blue\n").is_err());
        let e = SolverSpec::parse("order 5\n").unwrap_err();
        assert!(e.message.contains("key = value"));
    }

    #[test]
    fn rejects_unstable_cfl_and_bad_order() {
        let e = SolverSpec::parse("cfl = 0.9\n").unwrap_err();
        assert!(e.message.contains("stability"));
        assert!(SolverSpec::parse("order = 1\n").is_err());
        assert!(SolverSpec::parse("order = 99\n").is_err());
    }

    #[test]
    fn display_formats_line() {
        let e = SolverSpec::parse("kernel = x\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }
}
