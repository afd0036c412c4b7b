//! # aderdg-lint
//!
//! The workspace's dependency-free project-invariant checker. Rust's
//! type system cannot see the contracts this codebase leans on — that
//! every `unsafe` block argues its soundness, that every atomic memory
//! ordering in the scheduler is justified, that library code never
//! panics on user input, that the numeric core stays bit-deterministic
//! and hermetic, and that every `ADERDG_*` knob is documented. This
//! crate enforces them statically: a hand-rolled lexer ([`lex`]) that
//! never mistakes strings or comments for code, a pass framework over
//! every workspace `.rs` file, and one pass per invariant family
//! ([`lints`]).
//!
//! Run it as `cargo run -p aderdg-lint -- --check`; see `docs/LINTS.md`
//! for each lint's rationale and suppression syntax, and `docs/KNOBS.md`
//! for the env-var registry the `knobs-registry` lint cross-checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lex;
pub mod lints;

use lex::{Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// How far above a flagged token a justification comment may sit (in
/// lines) when it is not directly attached to the statement.
const TAG_PROXIMITY_LINES: u32 = 4;

/// One lint finding, rendered rustc-style.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint that produced the finding (e.g. `safety-comment`).
    pub lint: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or suppress it.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.path, self.line, self.col, self.lint, self.message
        )?;
        write!(f, "  help: {}", self.help)
    }
}

/// One lexed workspace source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The token stream (comments included).
    pub toks: Vec<Tok>,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` into a source file model.
    pub fn parse(rel: impl Into<String>, text: &str) -> SourceFile {
        let toks = lex::lex(text);
        let test_spans = compute_test_spans(&toks);
        SourceFile {
            rel: rel.into(),
            toks,
            test_spans,
        }
    }

    /// True when token `idx` falls inside a `#[cfg(test)]` module/item
    /// or a `#[test]` function.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= idx && idx < e)
    }

    /// Searches for a justification comment containing any of `needles`
    /// that plausibly annotates token `idx`:
    ///
    /// * trailing on the same line (`do_it(); // TAG: why`),
    /// * between the previous statement boundary (`;`/`{`/`}`) and the
    ///   token — the "comment directly above the statement" idiom, which
    ///   also spans attribute lines,
    /// * or within `TAG_PROXIMITY_LINES` (4) lines above the token, for
    ///   comments above a `for`/`if`/`match` header whose body contains
    ///   the flagged expression.
    pub fn tag_near(&self, idx: usize, needles: &[&str]) -> Option<&Tok> {
        let line = self.toks[idx].line;
        let hit = |t: &Tok| t.is_comment() && needles.iter().any(|n| t.text.contains(n));
        // Trailing comment on the same line.
        for t in &self.toks[idx + 1..] {
            if t.line > line {
                break;
            }
            if hit(t) {
                // Indexing gymnastics avoided: re-find by pointer equality.
                return Some(t);
            }
        }
        // Backwards: stop at a statement boundary, but keep accepting
        // close-by comments past it (the proximity rule).
        let mut bounded = true;
        for t in self.toks[..idx].iter().rev() {
            if t.line + TAG_PROXIMITY_LINES < line && !bounded {
                break;
            }
            if hit(t) && (bounded || t.line + TAG_PROXIMITY_LINES >= line) {
                return Some(t);
            }
            if !t.is_comment() && matches!(t.kind, TokKind::Punct(';' | '{' | '}')) {
                bounded = false;
                if t.line + TAG_PROXIMITY_LINES < line {
                    break;
                }
            }
        }
        None
    }

    /// Builds a [`Diagnostic`] at token `idx`.
    pub fn diag(
        &self,
        lint: &'static str,
        idx: usize,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            lint,
            path: self.rel.clone(),
            line: self.toks[idx].line,
            col: self.toks[idx].col,
            message: message.into(),
            help: help.into(),
        }
    }
}

/// Finds the token ranges of test-only code: any item carrying a
/// `#[cfg(test)]`-like or `#[test]` attribute, from the attribute to the
/// item's closing brace. `#[cfg(not(test))]` is *not* a test span.
fn compute_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test)) = scan_attribute(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end;
        while j < toks.len() && toks[j].is_punct('#') {
            match scan_attribute(toks, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        // Find the item body: the first `{` before any `;` (a `;` means
        // an item with no body — nothing to span).
        let mut depth = 0usize;
        let mut end = None;
        for (k, t) in toks.iter().enumerate().skip(j) {
            match t.kind {
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(k + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(end) = end {
            spans.push((i, end));
            i = end;
        } else {
            i = attr_end;
        }
    }
    spans
}

/// Scans an attribute starting at the `#` token; returns the token index
/// one past the closing `]` and whether the attribute marks test code.
fn scan_attribute(toks: &[Tok], hash: usize) -> Option<(usize, bool)> {
    let mut i = hash + 1;
    while i < toks.len() && toks[i].is_comment() {
        i += 1;
    }
    if i >= toks.len() || !toks[i].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    for (k, t) in toks.iter().enumerate().skip(i) {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((k + 1, has_test && !has_not));
                }
            }
            TokKind::Ident if t.text == "test" => has_test = true,
            TokKind::Ident if t.text == "not" => has_not = true,
            _ => {}
        }
    }
    None
}

/// The whole scanned workspace, handed to project-level passes.
#[derive(Debug)]
pub struct Project {
    /// Workspace root.
    pub root: PathBuf,
    /// Every lexed `.rs` file, sorted by relative path (deterministic
    /// diagnostic order).
    pub files: Vec<SourceFile>,
}

/// Collects and lexes every workspace `.rs` file under `root`, skipping
/// `target/`, VCS metadata and the lint fixture corpus.
pub fn load_project(root: &Path) -> std::io::Result<Project> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::parse(rel.replace('\\', "/"), &text));
    }
    Ok(Project {
        root: root.to_path_buf(),
        files,
    })
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | ".github" | "fixtures") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    Ok(())
}

/// Runs every lint pass over the project and returns the findings,
/// sorted by path, line and column.
pub fn run_lints(project: &Project) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut passes = lints::all_passes();
    for pass in &mut passes {
        for file in &project.files {
            pass.check_file(file, &mut out);
        }
        pass.finish(project, &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint).cmp(&(b.path.as_str(), b.line, b.col, b.lint))
    });
    out
}

/// Lints a single in-memory source snippet under a virtual path — the
/// unit-test entry point (project-level passes like `knobs-registry`
/// need [`run_lints`] instead).
pub fn lint_source(rel: &str, text: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel, text);
    let mut out = Vec::new();
    for pass in &mut lints::all_passes() {
        pass.check_file(&file, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.col, a.lint).cmp(&(b.line, b.col, b.lint)));
    out
}

/// Per-lint finding counts plus the total, as the `--json` summary
/// object (a flat record future PRs can diff to track suppression
/// growth).
pub fn json_summary(diags: &[Diagnostic]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for name in lints::LINT_NAMES {
        counts.insert(name, 0);
    }
    for d in diags {
        *counts.entry(d.lint).or_insert(0) += 1;
    }
    let mut body = format!("\"total\": {}", diags.len());
    for (name, count) in counts {
        body.push_str(&format!(", \"{name}\": {count}"));
    }
    format!("{{{body}}}")
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
