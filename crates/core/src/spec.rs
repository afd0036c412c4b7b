//! Specification files — the analogue of ExaHyPE's specification file.
//!
//! In the paper, users select the kernel variant, order and architecture
//! in a specification file; the Toolkit validates it and generates glue
//! code (Sec. II-C/D). Here a spec file is the `[solver]` table of an
//! `aderdg-run` config without its header: `key = value` lines over the
//! [`SOLVER_KEYS`] (bare values, `#` comments), read by
//! [`RunRequest::from_spec`] through the same [`RunRequest::set`] that
//! parses every CLI flag. Unwritten keys keep the scenario's defaults;
//! [`crate::scenario::resolve`] validates the merged result (the facade
//! crate's docs show the route end to end).

use crate::scenario::{RunRequest, SOLVER_KEYS};
use std::fmt;

/// A spec-file error with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
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

/// Parses an `auto`-or-positive-integer size value (`block_size`,
/// `shard_size`): `Some(None)` for `auto`, `Some(Some(n))` for `n ≥ 1`,
/// `None` for anything else.
pub fn parse_auto_size(value: &str) -> Option<Option<usize>> {
    if value == "auto" {
        return Some(None);
    }
    value.parse::<usize>().ok().filter(|&b| b >= 1).map(Some)
}

impl RunRequest {
    /// Reads a spec file into a request that overrides exactly the keys
    /// the file writes. Every line goes through [`RunRequest::set`]; a
    /// run-level or unknown key, a line without `=` or a value `set`
    /// rejects is an error carrying its 1-based line. Ranges (order,
    /// cfl), kernel names and zero sizes are checked by
    /// [`crate::scenario::resolve`], as for every other source of knobs.
    pub fn from_spec(text: &str) -> Result<RunRequest, SpecError> {
        let mut req = RunRequest::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| SpecError {
                line: idx + 1,
                message,
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            if !SOLVER_KEYS.contains(&key) {
                return Err(err(format!(
                    "unknown key `{key}` (a spec file holds solver keys only: {})",
                    SOLVER_KEYS.join("|")
                )));
            }
            req.set(key, value).map_err(|e| {
                err(format!(
                    "invalid value `{value}` for {key} (expected {})",
                    e.expected
                ))
            })?;
        }
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::{resolve, ScenarioRegistry};
    use aderdg_quadrature::QuadratureRule;
    use aderdg_tensor::Isa;

    /// `text` merged over `maxwell_cavity`'s defaults and validated.
    fn resolved(text: &str) -> Result<EngineConfig, String> {
        let scenario = ScenarioRegistry::global().resolve("maxwell_cavity");
        let req = RunRequest::from_spec(text).map_err(|e| e.to_string())?;
        match resolve(&scenario.unwrap().info(), &req) {
            Ok(r) => Ok(r.config),
            Err(e) => Err(e.to_string()),
        }
    }

    #[test]
    fn parses_full_spec() {
        let c = resolved(
            "# benchmark setup\norder = 6\nkernel = splitck  # Sec. IV\nwidth = avx512\n\
             rule = gauss_lobatto\ncfl = 0.3\nblock_size = 8\n",
        )
        .unwrap();
        assert_eq!((c.order, c.kernel.name(), c.cfl), (6, "splitck", 0.3));
        assert_eq!((c.width, c.block_size), (Some(Isa::Avx512), Some(8)));
        assert_eq!(c.rule, QuadratureRule::GaussLobatto);
    }

    #[test]
    fn tuning_parses_defaults_to_model_and_rejects_unknown() {
        use crate::tune::TuningMode;
        assert_eq!(resolved("order = 4\n").unwrap().tuning, TuningMode::Model);
        for (text, mode) in [
            ("tuning = static\n", TuningMode::Static),
            ("tuning = model\n", TuningMode::Model),
        ] {
            assert_eq!(RunRequest::from_spec(text).unwrap().tuning, Some(mode));
            assert_eq!(resolved(text).unwrap().tuning, mode);
        }
        for text in ["tuning = lucky\n", "tuning = probe\n"] {
            let e = RunRequest::from_spec(text).unwrap_err();
            assert!(
                e.message.contains("(expected static|model)"),
                "{}",
                e.message
            );
        }
    }

    #[test]
    fn pipeline_parses_and_rejects_unknown() {
        use crate::engine::PipelineMode;
        for (text, mode) in [
            ("pipeline = barrier\n", PipelineMode::Barrier),
            ("pipeline = sharded\n", PipelineMode::Sharded),
        ] {
            assert_eq!(RunRequest::from_spec(text).unwrap().pipeline, Some(mode));
            assert_eq!(resolved(text).unwrap().pipeline, mode);
        }
        let e = RunRequest::from_spec("pipeline = warp\n").unwrap_err();
        assert!(e.message.contains("barrier|sharded"), "{}", e.message);
    }

    #[test]
    fn stepping_parses_and_rejects_unknown() {
        use crate::engine::SteppingMode;
        for (text, mode) in [
            ("stepping = global\n", SteppingMode::Global),
            ("stepping = lts\n", SteppingMode::Lts),
        ] {
            assert_eq!(RunRequest::from_spec(text).unwrap().stepping, Some(mode));
            assert_eq!(resolved(text).unwrap().stepping, mode);
        }
        let e = RunRequest::from_spec("stepping = warp\n").unwrap_err();
        assert!(e.message.contains("global|lts"), "{}", e.message);
    }

    #[test]
    fn block_size_auto_and_rejects_invalid() {
        let req = RunRequest::from_spec("block_size = auto\n").unwrap();
        assert_eq!(req.block_size, Some(None));
        assert_eq!(resolved("block_size = auto\n").unwrap().block_size, None);
        assert!(RunRequest::from_spec("block_size = 0\n").is_err());
        assert!(RunRequest::from_spec("block_size = wide\n").is_err());
    }

    #[test]
    fn shard_size_auto_and_rejects_invalid() {
        let req = RunRequest::from_spec("shard_size = auto\n").unwrap();
        assert_eq!(req.shard_size, Some(None));
        assert_eq!(resolved("shard_size = 12\n").unwrap().shard_size, Some(12));
        assert!(RunRequest::from_spec("shard_size = 0\n").is_err());
        assert!(RunRequest::from_spec("shard_size = many\n").is_err());
    }

    #[test]
    fn rejects_unknown_kernel() {
        let e = resolved("order = 4\nkernel = turbo\n").unwrap_err();
        assert!(e.contains("unknown kernel `turbo`"), "{e}");
        assert!(e.contains("aosoa_splitck"), "{e}"); // lists what is registered
    }

    #[test]
    fn rejects_unknown_key_and_bad_syntax() {
        assert!(RunRequest::from_spec("colour = blue\n").is_err());
        let e = RunRequest::from_spec("\norder 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("key = value"));
    }

    #[test]
    fn rejects_unstable_cfl_and_bad_order() {
        assert!(resolved("cfl = 0.9\n").unwrap_err().contains("stability"));
        for order in [1, 99] {
            let e = resolved(&format!("order = {order}\n")).unwrap_err();
            assert!(e.contains(&format!("order {order} outside 2..=15")), "{e}");
        }
    }

    #[test]
    fn display_formats_line() {
        let e = RunRequest::from_spec("width = x\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }
}
