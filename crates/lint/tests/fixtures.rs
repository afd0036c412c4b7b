//! Fixture corpus for every lint: positive snippets that must fire,
//! negative snippets that must stay silent, and the tricky lexical
//! shapes (code inside strings and comments, raw strings, multiline
//! calls) that would fool a regex-based checker.
//!
//! Fixtures are inline raw strings, not files — the workspace self-scan
//! lexes this very file, and string contents are opaque to every pass,
//! so the corpus can never contaminate the real lint run.

use aderdg_lint::{find_workspace_root, json_summary, lint_source, load_project, run_lints};

/// Names of the lints that fired, in diagnostic order.
fn fired(rel: &str, src: &str) -> Vec<&'static str> {
    lint_source(rel, src).iter().map(|d| d.lint).collect()
}

const LIB: &str = "crates/core/src/fixture.rs";

// ---------------------------------------------------------------- safety

#[test]
fn unsafe_without_comment_fires() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(fired(LIB, src), ["safety-comment"]);
}

#[test]
fn unsafe_with_safety_comment_above_is_clean() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    // SAFETY: caller contract — `p` is valid for one read.
    unsafe { *p }
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn unsafe_with_trailing_comment_is_clean() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: caller contract.
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn unsafe_fn_with_safety_doc_section_is_clean() {
    let src = r#"
/// Reads one byte.
///
/// # Safety
/// `p` must be valid for one read.
pub unsafe fn f(p: *const u8) -> u8 {
    // SAFETY: forwarded caller contract.
    unsafe { *p }
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn comment_spanning_attribute_still_attaches() {
    let src = r#"
// SAFETY: the attribute between the comment and the item is fine.
#[inline(always)]
unsafe fn g() {}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn todo_stub_fires_safety_stub() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    // SAFETY: TODO(audit): argue why this is sound.
    unsafe { *p }
}
"#;
    assert_eq!(fired(LIB, src), ["safety-stub"]);
}

#[test]
fn unsafe_inside_strings_and_comments_is_invisible() {
    let src = r##"
// this comment mentions unsafe { *p } and is not code
pub fn f() -> &'static str {
    let a = "unsafe { transmute(0) }";
    let b = r#"unsafe impl Send for X {}"#;
    let _ = (a, b);
    "unsafe"
}
"##;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn safety_tag_inside_string_does_not_satisfy() {
    // The tag must be a comment; a string containing "SAFETY:" is data.
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    let _claim = "SAFETY: trust me";
    unsafe { *p }
}
"#;
    assert_eq!(fired(LIB, src), ["safety-comment"]);
}

#[test]
fn stale_comment_past_statement_boundary_does_not_attach() {
    // The SAFETY comment annotates the first statement; the `;` boundary
    // plus distance keeps it from excusing the second unsafe block.
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    // SAFETY: caller contract — valid for one read.
    let a = unsafe { *p };
    let _pad1 = 1;
    let _pad2 = 2;
    let _pad3 = 3;
    let _pad4 = 4;
    let b = unsafe { *p.add(1) };
    a + b
}
"#;
    assert_eq!(fired(LIB, src), ["safety-comment"]);
}

// -------------------------------------------------------------- ordering

const POOL: &str = "crates/core/src/pool.rs";

#[test]
fn untagged_ordering_in_scheduler_file_fires() {
    let src = r#"
fn f(flag: &std::sync::atomic::AtomicBool) -> bool {
    flag.load(Ordering::Acquire)
}
"#;
    assert_eq!(fired(POOL, src), ["ordering-comment"]);
}

#[test]
fn tagged_ordering_is_clean() {
    let src = r#"
fn f(flag: &std::sync::atomic::AtomicBool) -> bool {
    // ORDERING: Acquire pairs with the Release store in `g`.
    flag.load(Ordering::Acquire)
}
"#;
    assert_eq!(fired(POOL, src), [] as [&str; 0]);
}

#[test]
fn ordering_outside_scheduler_files_is_out_of_scope() {
    let src = r#"
fn f(flag: &std::sync::atomic::AtomicBool) -> bool {
    flag.load(Ordering::SeqCst)
}
"#;
    assert_eq!(fired("crates/serve/src/lib.rs", src), [] as [&str; 0]);
}

#[test]
fn ordering_in_test_module_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    fn f(flag: &std::sync::atomic::AtomicBool) -> bool {
        flag.load(Ordering::Relaxed)
    }
}
"#;
    assert_eq!(fired(POOL, src), [] as [&str; 0]);
}

#[test]
fn ordering_enum_definition_itself_does_not_fire() {
    // `Ordering` not followed by `::<mode>` (e.g. a `use` or a match on
    // `cmp::Ordering`) is not an atomic ordering site.
    let src = r#"
use std::cmp::Ordering;
fn f(a: i32, b: i32) -> bool {
    matches!(a.cmp(&b), Ordering::Less)
}
"#;
    assert_eq!(fired(POOL, src), [] as [&str; 0]);
}

// -------------------------------------------------------------- no-panic

#[test]
fn unwrap_expect_panic_fire_in_library_code() {
    let src = r#"
pub fn f(x: Option<u8>) -> u8 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b == 0 {
        panic!("zero");
    }
    a
}
"#;
    assert_eq!(fired(LIB, src), ["no-panic", "no-panic", "no-panic"]);
}

#[test]
fn panic_ok_tag_suppresses() {
    let src = r#"
pub fn f(x: Option<u8>) -> u8 {
    // PANIC-OK: internal invariant — the caller just inserted it.
    x.unwrap()
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn multiline_expect_is_still_caught() {
    let src = r#"
pub fn f(x: Option<u8>) -> u8 {
    x.expect(
        "a long message that pushed the call onto its own lines",
    )
}
"#;
    assert_eq!(fired(LIB, src), ["no-panic"]);
}

#[test]
fn test_module_and_test_collateral_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
    // Same snippet without the cfg(test) wrapper, but under tests/.
    let bare = r#"
fn helper(x: Option<u8>) -> u8 {
    x.unwrap()
}
"#;
    assert_eq!(fired("crates/core/tests/smoke.rs", bare), [] as [&str; 0]);
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let src = r#"
#[cfg(not(test))]
pub fn f(x: Option<u8>) -> u8 {
    x.unwrap()
}
"#;
    assert_eq!(fired(LIB, src), ["no-panic"]);
}

#[test]
fn unwrap_mentions_that_are_not_calls_do_not_fire() {
    let src = r#"
// .unwrap() in a comment, "x.expect(y)" in a string: not calls.
pub fn unwrap_free() -> &'static str {
    let msg = "never .unwrap() here; panic! neither";
    msg
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

// ----------------------------------------------------------- determinism

#[test]
fn instant_and_hashmap_fire_in_numeric_core() {
    let src = r#"
use std::collections::HashMap;
pub fn f() {
    let t = std::time::Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = (t, m);
}
"#;
    // One per mention: the import, the `Instant` ident, two `HashMap`s.
    assert_eq!(
        fired(LIB, src),
        ["determinism", "determinism", "determinism", "determinism"]
    );
}

#[test]
fn duration_is_plain_data_and_clean() {
    let src = r#"
pub fn f(d: std::time::Duration) -> u64 {
    d.as_secs()
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn determinism_ok_tag_suppresses() {
    let src = r#"
pub fn f() -> f64 {
    // DETERMINISM-OK: timing is reporting-only metadata.
    let t = std::time::Instant::now();
    t.elapsed().as_secs_f64()
}
"#;
    assert_eq!(fired(LIB, src), [] as [&str; 0]);
}

#[test]
fn every_numeric_core_file_is_in_scope() {
    let src = r#"
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    for file in ["crates/core/src/tune.rs", "crates/gemm/src/backend.rs"] {
        assert_eq!(fired(file, src), ["determinism", "determinism"], "{file}");
    }
}

#[test]
fn non_core_crates_are_out_of_scope() {
    let src = r#"
use std::collections::HashMap;
pub fn f() -> HashMap<u32, u32> {
    HashMap::new()
}
"#;
    assert_eq!(fired("crates/serve/src/lib.rs", src), [] as [&str; 0]);
}

// -------------------------------------------------------- knobs-registry

/// Builds a throwaway project tree, runs the full project-level lint,
/// and tears it down.
fn with_project(files: &[(&str, &str)], f: impl FnOnce(Vec<aderdg_lint::Diagnostic>)) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::temp_dir().join(format!(
        "aderdg-lint-fixture-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
    }
    std::fs::create_dir_all(&root).unwrap();
    let project = load_project(&root).unwrap();
    let diags = run_lints(&project);
    std::fs::remove_dir_all(&root).ok();
    f(diags);
}

/// Assembles an `ADERDG_*` name at runtime so the workspace self-scan
/// never sees a fake knob as an exact string literal.
fn knob(suffix: &str) -> String {
    format!("ADERDG_{suffix}")
}

#[test]
fn knob_read_missing_from_registry_fires_both_ways() {
    let read = knob("FIXTURE_READ");
    let stale = knob("FIXTURE_STALE");
    let src = format!("pub fn f() -> bool {{ std::env::var(\"{read}\").is_ok() }}\n");
    let registry = format!("# knobs\n\n| Knob | Effect |\n|---|---|\n| `{stale}` | nothing |\n");
    with_project(
        &[("crates/x/src/lib.rs", &src), ("docs/KNOBS.md", &registry)],
        |diags| {
            let lints: Vec<_> = diags.iter().map(|d| d.lint).collect();
            assert_eq!(lints, ["knobs-registry", "knobs-registry"]);
            let msgs: Vec<_> = diags.iter().map(|d| d.message.as_str()).collect();
            assert!(msgs
                .iter()
                .any(|m| m.contains("missing from docs/KNOBS.md")));
            assert!(msgs.iter().any(|m| m.contains("never read in source")));
        },
    );
}

#[test]
fn documented_knob_read_in_source_is_clean() {
    let name = knob("FIXTURE_OK");
    let src = format!("pub fn f() -> bool {{ std::env::var(\"{name}\").is_ok() }}\n");
    let registry = format!("| Knob | Effect |\n|---|---|\n| `{name}` | fixture |\n");
    with_project(
        &[("crates/x/src/lib.rs", &src), ("docs/KNOBS.md", &registry)],
        |diags| assert!(diags.is_empty(), "{diags:?}"),
    );
}

#[test]
fn missing_registry_file_is_one_finding() {
    with_project(&[("crates/x/src/lib.rs", "pub fn f() {}\n")], |diags| {
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "knobs-registry");
        assert!(diags[0].message.contains("docs/KNOBS.md is missing"));
    });
}

#[test]
fn knob_in_prose_or_panic_message_is_not_a_read() {
    let name = knob("FIXTURE_PROSE");
    let src = format!(
        "pub fn f() {{ let _ = \"set {name} to tune this\"; }}\n// mentions {name} in a comment\n"
    );
    with_project(
        &[
            ("crates/x/src/lib.rs", &src),
            ("docs/KNOBS.md", "| `nothing` |\n"),
        ],
        |diags| assert!(diags.is_empty(), "{diags:?}"),
    );
}

// --------------------------------------------------- summary + self-scan

#[test]
fn json_summary_counts_every_lint() {
    let diags = lint_source(
        LIB,
        r#"
pub fn f(x: Option<u8>, p: *const u8) -> u8 {
    let a = x.unwrap();
    a + unsafe { *p }
}
"#,
    );
    let json = json_summary(&diags);
    assert_eq!(
        json,
        "{\"total\": 2, \"determinism\": 0, \"knobs-registry\": 0, \
         \"no-panic\": 1, \"ordering-comment\": 0, \"safety-comment\": 1, \
         \"safety-stub\": 0}"
    );
}

#[test]
fn workspace_self_scan_is_clean() {
    let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&here).expect("workspace root above crates/lint");
    let project = load_project(&root).expect("workspace scan");
    let diags = run_lints(&project);
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
