//! The invariant passes: one per contract family the workspace promises
//! in tests and docs but — before this crate — enforced nowhere.
//!
//! | lint | invariant |
//! |---|---|
//! | `safety-comment` | every `unsafe` argues its soundness in a `// SAFETY:` comment (or `# Safety` doc section) |
//! | `safety-stub` | a `// SAFETY: TODO…` stub from `--fix-safety-stubs` still needs a real argument |
//! | `ordering-comment` | every atomic `Ordering::…` in the scheduler files carries a `// ORDERING:` justification |
//! | `no-panic` | no `.unwrap()` / `.expect(` / `panic!` in library code without a `// PANIC-OK:` tag |
//! | `determinism` | no wall-clock (`Instant`, `std::time`) or hash-order types (`HashMap`/`HashSet`) in the numeric core |
//! | `knobs-registry` | every `ADERDG_*` env var read in source appears in `docs/KNOBS.md`, and vice versa |
//!
//! See `docs/LINTS.md` for the full rationale and the suppression
//! syntax of each pass.

use crate::lex::TokKind;
use crate::{Diagnostic, Project, SourceFile};
use std::collections::BTreeMap;

/// Every lint name, in reporting order (drives the `--json` summary so
/// zero-count lints still show up).
pub const LINT_NAMES: &[&str] = &[
    "safety-comment",
    "safety-stub",
    "ordering-comment",
    "no-panic",
    "determinism",
    "knobs-registry",
];

/// Files whose atomic orderings carry the scheduler's correctness — the
/// scope of `ordering-comment`.
const ORDERING_FILES: &[&str] = &[
    "crates/core/src/pool.rs",
    "crates/core/src/par.rs",
    "crates/core/src/jobs.rs",
];

/// Module prefixes forming the bit-deterministic numeric core — the
/// scope of `determinism`.
const NUMERIC_CORE: &[&str] = &[
    "crates/tensor/src/",
    "crates/quadrature/src/",
    "crates/gemm/src/",
    "crates/pde/src/",
    "crates/mesh/src/",
    "crates/core/src/",
];

/// A lint pass: per-file checks plus an optional whole-project pass.
pub trait Pass {
    /// The lint name as reported in diagnostics.
    fn name(&self) -> &'static str;
    /// Checks one lexed file.
    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>);
    /// Runs once after every file was checked (cross-file lints).
    fn finish(&mut self, _project: &Project, _out: &mut Vec<Diagnostic>) {}
}

/// Builds the full pass list, in [`LINT_NAMES`] order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(SafetyComments),
        Box::new(OrderingComments),
        Box::new(NoPanic),
        Box::new(Determinism),
        Box::new(KnobsRegistry::default()),
    ]
}

/// True when the file is test/bench/example collateral rather than
/// shipped library or binary code.
fn is_test_collateral(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.starts_with("crates/bench/")
}

/// `safety-comment` / `safety-stub`: every `unsafe` keyword — block,
/// fn, impl or trait — must be annotated with a `// SAFETY:` comment
/// (or a `# Safety` doc section for declarations), and the annotation
/// must not be a generated TODO stub.
struct SafetyComments;

impl Pass for SafetyComments {
    fn name(&self) -> &'static str {
        "safety-comment"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for (i, t) in file.toks.iter().enumerate() {
            if !t.is_ident("unsafe") {
                continue;
            }
            match file.tag_near(i, &["SAFETY:", "# Safety"]) {
                None => out.push(file.diag(
                    "safety-comment",
                    i,
                    "`unsafe` without a `// SAFETY:` comment",
                    "argue the soundness in a `// SAFETY:` comment directly above \
                     (docs/LINTS.md#safety-comment); `--fix-safety-stubs` inserts TODO stubs",
                )),
                Some(tag) if tag.text.contains("TODO") => out.push(file.diag(
                    "safety-stub",
                    i,
                    "`unsafe` annotated only with a TODO stub",
                    "replace the stub with a real soundness argument \
                     (docs/LINTS.md#safety-stub)",
                )),
                Some(_) => {}
            }
        }
    }
}

/// `ordering-comment`: in the scheduler files, every atomic memory
/// ordering must carry a nearby `// ORDERING:` justification.
struct OrderingComments;

impl Pass for OrderingComments {
    fn name(&self) -> &'static str {
        "ordering-comment"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !ORDERING_FILES.contains(&file.rel.as_str()) {
            return;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("Ordering") || file.in_test(i) {
                continue;
            }
            // Match `Ordering` `::` `<mode>` with comments allowed in
            // between (the lexer keeps them in-stream).
            let mut rest = toks[i + 1..].iter().filter(|t| !t.is_comment());
            let (c1, c2, mode) = (rest.next(), rest.next(), rest.next());
            let is_path =
                c1.is_some_and(|t| t.is_punct(':')) && c2.is_some_and(|t| t.is_punct(':'));
            let Some(mode) = mode else { continue };
            if !is_path
                || !matches!(
                    mode.text.as_str(),
                    "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                )
            {
                continue;
            }
            if file.tag_near(i, &["ORDERING:"]).is_none() {
                out.push(file.diag(
                    "ordering-comment",
                    i,
                    format!(
                        "`Ordering::{}` without a `// ORDERING:` justification",
                        mode.text
                    ),
                    "explain why this ordering suffices in a `// ORDERING:` comment on or \
                     above this statement (docs/LINTS.md#ordering-comment)",
                ));
            }
        }
    }
}

/// `no-panic`: library code must not `.unwrap()`, `.expect(…)` or
/// `panic!` on reachable paths — convert to a typed error, or tag the
/// site `// PANIC-OK:` with the invariant that makes it unreachable.
struct NoPanic;

impl Pass for NoPanic {
    fn name(&self) -> &'static str {
        "no-panic"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if is_test_collateral(&file.rel) {
            return;
        }
        let toks = &file.toks;
        let code_before = |i: usize| toks[..i].iter().rev().find(|t| !t.is_comment());
        let code_after = |i: usize| toks[i + 1..].iter().find(|t| !t.is_comment());
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            let what = if (t.is_ident("unwrap") || t.is_ident("expect"))
                && code_before(i).is_some_and(|p| p.is_punct('.'))
                && code_after(i).is_some_and(|n| n.is_punct('('))
            {
                format!(".{}(…)", t.text)
            } else if t.is_ident("panic") && code_after(i).is_some_and(|n| n.is_punct('!')) {
                "panic!".to_string()
            } else {
                continue;
            };
            if file.tag_near(i, &["PANIC-OK:"]).is_none() {
                out.push(file.diag(
                    "no-panic",
                    i,
                    format!("`{what}` in library code"),
                    "return a typed error, or tag the site `// PANIC-OK: <why this cannot \
                     fire / why aborting is right>` (docs/LINTS.md#no-panic)",
                ));
            }
        }
    }
}

/// `determinism`: the numeric core must stay hermetic and bit-stable —
/// no wall-clock reads, and no containers whose iteration order depends
/// on hasher state.
struct Determinism;

impl Pass for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let rel = file.rel.as_str();
        if !NUMERIC_CORE.iter().any(|p| rel.starts_with(p)) || is_test_collateral(rel) {
            return;
        }
        let toks = &file.toks;
        let code_before = |i: usize| toks[..i].iter().rev().find(|t| !t.is_comment());
        let code_after = |i: usize| toks[i + 1..].iter().find(|t| !t.is_comment());
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            let (what, why) = if t.is_ident("Instant") || t.is_ident("SystemTime") {
                (t.text.as_str(), "wall-clock reads break hermetic replay")
            } else if t.is_ident("time")
                && code_before(i).is_some_and(|p| p.is_punct(':'))
                && !code_after(i).is_some_and(|n| n.is_punct(':'))
            {
                // A bare `std::time` module use; `std::time::Duration`
                // (plain data, no clock) resolves through the ident
                // rules above instead.
                ("std::time", "wall-clock reads break hermetic replay")
            } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                (
                    t.text.as_str(),
                    "hash iteration order is nondeterministic across runs",
                )
            } else {
                continue;
            };
            if file.tag_near(i, &["DETERMINISM-OK:"]).is_none() {
                out.push(file.diag(
                    "determinism",
                    i,
                    format!("`{what}` in a numeric-core module ({why})"),
                    "use BTreeMap/BTreeSet or pass timings in as data; if provably \
                     result-neutral, tag `// DETERMINISM-OK: <why>` \
                     (docs/LINTS.md#determinism)",
                ));
            }
        }
    }
}

/// `knobs-registry`: cross-checks every `ADERDG_*` string literal in
/// source against the canonical table in `docs/KNOBS.md`, both ways.
#[derive(Default)]
struct KnobsRegistry {
    /// First read site per knob: var → (path, line, col).
    reads: BTreeMap<String, (String, u32, u32)>,
}

/// True for a complete `ADERDG_*` env-var name (the exact-literal form
/// `env::var("ADERDG_X")` reads use; prose mentioning a knob inside a
/// longer message does not count as a read).
fn is_knob_name(s: &str) -> bool {
    s.strip_prefix("ADERDG_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

impl Pass for KnobsRegistry {
    fn name(&self) -> &'static str {
        "knobs-registry"
    }

    fn check_file(&mut self, file: &SourceFile, _out: &mut Vec<Diagnostic>) {
        for t in &file.toks {
            if t.kind != TokKind::Str {
                continue;
            }
            let Some(content) = t.str_content() else {
                continue;
            };
            if is_knob_name(content) {
                self.reads
                    .entry(content.to_string())
                    .or_insert_with(|| (file.rel.clone(), t.line, t.col));
            }
        }
    }

    fn finish(&mut self, project: &Project, out: &mut Vec<Diagnostic>) {
        const REGISTRY: &str = "docs/KNOBS.md";
        let Ok(text) = std::fs::read_to_string(project.root.join(REGISTRY)) else {
            out.push(Diagnostic {
                lint: "knobs-registry",
                path: REGISTRY.to_string(),
                line: 1,
                col: 1,
                message: "docs/KNOBS.md is missing — the ADERDG_* knob registry has \
                          nowhere to live"
                    .to_string(),
                help: "create docs/KNOBS.md with one table row per `ADERDG_*` knob \
                       (docs/LINTS.md#knobs-registry)"
                    .to_string(),
            });
            return;
        };
        // Registry rows: markdown table lines whose first backticked
        // span is the knob name.
        let mut documented: BTreeMap<String, u32> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with('|') {
                continue;
            }
            for span in line.split('`').skip(1).step_by(2) {
                let name = span.trim_end_matches(['=', '*']);
                if is_knob_name(name) {
                    documented.entry(name.to_string()).or_insert(n as u32 + 1);
                }
            }
        }
        for (var, (path, line, col)) in &self.reads {
            if !documented.contains_key(var) {
                out.push(Diagnostic {
                    lint: "knobs-registry",
                    path: path.clone(),
                    line: *line,
                    col: *col,
                    message: format!("env var `{var}` is read here but missing from docs/KNOBS.md"),
                    help: format!(
                        "add a `{var}` row to the table in docs/KNOBS.md \
                         (docs/LINTS.md#knobs-registry)"
                    ),
                });
            }
        }
        for (var, line) in &documented {
            if !self.reads.contains_key(var) {
                out.push(Diagnostic {
                    lint: "knobs-registry",
                    path: REGISTRY.to_string(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "`{var}` is documented in docs/KNOBS.md but never read in source"
                    ),
                    help: "remove the stale row, or wire the knob back up \
                           (docs/LINTS.md#knobs-registry)"
                        .to_string(),
                });
            }
        }
    }
}
