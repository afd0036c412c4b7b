//! Specification files — the analogue of ExaHyPE's specification file.
//!
//! In the paper, users select the kernel variant, order and architecture
//! in a specification file; the Toolkit validates it and generates glue
//! code (Sec. II-C/D). Here a spec file is `key = value` lines over the
//! [`SOLVER_KEYS`] (bare values, `#` comments), read by
//! [`RunRequest::from_spec`] through the same [`RunRequest::set`] that
//! parses every CLI flag. Unwritten keys keep the scenario's defaults;
//! [`crate::scenario::resolve`] validates the merged result (the facade
//! crate's docs show the route end to end).
//!
//! An `aderdg-run --config` run file is a spec file that may also hold
//! run-level keys (`scenario`, `out`, `receivers`, `cells`, `t_end`,
//! `smoke`, `snapshot`, `save_checkpoint`). Both files go through
//! [`read_lines`], the one line reader; their callers differ only in
//! which keys they accept.

use crate::scenario::{RunRequest, SOLVER_KEYS};
use std::collections::BTreeMap;
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

/// One `key = value` line of a spec or run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecLine<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The key, trimmed.
    pub key: &'a str,
    /// The bare value, trimmed (never empty, never holds `"` or `#`).
    pub value: &'a str,
}

impl SpecLine<'_> {
    /// An error on this line.
    pub fn error(&self, message: impl fmt::Display) -> SpecError {
        SpecError {
            line: self.line,
            message: message.to_string(),
        }
    }

    /// Applies the line through [`RunRequest::set`]: `Ok(false)` if
    /// `set` does not know the key, an error naming the line if it
    /// rejects the value.
    pub fn apply(&self, req: &mut RunRequest) -> Result<bool, SpecError> {
        req.set(self.key, self.value).map_err(|e| {
            self.error(format!(
                "invalid value `{}` for {} (expected {})",
                self.value, self.key, e.expected
            ))
        })
    }
}

/// Reads the `key = value` lines of a spec or run file, skipping blank
/// lines and `#` comments (a `#` anywhere starts one). A line without
/// `=`, an empty key or value, a value containing `"` (values are bare)
/// and a repeated key (reported at its second line) are errors. Which
/// keys are allowed is the caller's business.
pub fn read_lines(text: &str) -> Result<Vec<SpecLine<'_>>, SpecError> {
    let mut lines = Vec::new();
    let mut seen = BTreeMap::new();
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
        if key.is_empty() {
            return Err(err(format!("missing key before `=` in `{line}`")));
        }
        if value.is_empty() {
            return Err(err(format!("missing value after `{key} =`")));
        }
        if value.contains('"') {
            return Err(err(format!(
                "`{value}` contains `\"`: values are bare, write `{key} = {}`",
                value.replace('"', "")
            )));
        }
        if let Some(first) = seen.insert(key, idx + 1) {
            return Err(err(format!("repeated key `{key}` (first on line {first})")));
        }
        lines.push(SpecLine {
            line: idx + 1,
            key,
            value,
        });
    }
    Ok(lines)
}

/// Parses an `auto`-or-positive-integer size value (`block_size`):
/// `Some(None)` for `auto`, `Some(Some(n))` for `n ≥ 1`, `None` for
/// anything else.
pub fn parse_auto_size(value: &str) -> Option<Option<usize>> {
    if value == "auto" {
        return Some(None);
    }
    value.parse::<usize>().ok().filter(|&b| b >= 1).map(Some)
}

impl RunRequest {
    /// Reads a spec file into a request that overrides exactly the keys
    /// the file writes. [`read_lines`] checks the syntax, then every line
    /// goes through [`RunRequest::set`]; a run-level or unknown key or a
    /// value `set` rejects is an error carrying its 1-based line. Ranges
    /// (order, cfl), kernel names and zero sizes are checked by
    /// [`crate::scenario::resolve`], as for every other source of knobs.
    pub fn from_spec(text: &str) -> Result<RunRequest, SpecError> {
        let mut req = RunRequest::new();
        for line in read_lines(text)? {
            if !SOLVER_KEYS.contains(&line.key) {
                return Err(line.error(format!(
                    "unknown key `{}` (a spec file holds solver keys only: {})",
                    line.key,
                    SOLVER_KEYS.join("|")
                )));
            }
            line.apply(&mut req)?;
        }
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::{resolve, ScenarioRegistry};
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
             cfl = 0.3\nblock_size = 8\n",
        )
        .unwrap();
        assert_eq!((c.order, c.kernel.name(), c.cfl), (6, "splitck", 0.3));
        assert_eq!((c.width, c.block_size), (Some(Isa::Avx512), Some(8)));
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

    /// The shard size is always `auto` — derived from the mesh and the
    /// block size — so a spec file that writes it, as `auto` or as a
    /// number, names an unknown key.
    #[test]
    fn shard_size_auto_and_rejects_invalid() {
        for value in ["auto", "4"] {
            let e = RunRequest::from_spec(&format!("shard_size = {value}\n")).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains("unknown key `shard_size`"), "{e}");
        }
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
    fn read_lines_returns_keys_values_and_lines() {
        let lines = read_lines("# head\n\n a = 1 # c\nout = x y.csv\n").unwrap();
        let got: Vec<_> = lines.iter().map(|l| (l.line, l.key, l.value)).collect();
        assert_eq!(got, [(3, "a", "1"), (4, "out", "x y.csv")]);
        for (text, line, needle) in [
            ("a = 1\n[run]\n", 2, "expected `key = value`"),
            (" = 1\n", 1, "missing key"),
            ("a =  # none\n", 1, "missing value"),
            ("a = \"x\"\n", 1, "values are bare, write `a = x`"),
            (
                "a = 1\nb = 2\na = 3\n",
                3,
                "repeated key `a` (first on line 1)",
            ),
        ] {
            let e = read_lines(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
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
