//! Hostile input for the one spec-file line reader
//! (`aderdg_core::spec::read_lines`) through both of its callers: the
//! `aderdg-run` run-file reader (`args_from_config`) and the spec-file
//! reader (`RunRequest::from_spec`, then `scenario::resolve`). Seeded and
//! std-only: every input must come back `Ok` or as an error whose line
//! lies inside the input — never a panic.

use aderdg_cli::args_from_config;
use aderdg_core::scenario::{resolve, RunRequest, ScenarioInfo, ScenarioRegistry};
use aderdg_tensor::Lcg;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CONFIG: &str = "# run file\n\
scenario = acoustic_wave  # bare\n\
cells = 3\n\
out = a.csv\n\
\n\
order = 4\n\
kernel = aosoa_splitck\n\
pipeline = barrier\n";

const SPEC: &str = "# spec\n\
order = 6\n\
kernel = splitck  # Sec. IV\n\
cfl = 0.3\n\
\n\
width = avx2\n\
block_size = auto\n\
stepping = lts\n";

/// Characters the parsers give meaning to, plus multibyte ones.
const ALPHABET: &[char] = &[
    '"', '\\', '#', '=', '[', ']', ' ', '\t', '\n', '\r', 'a', '_', '0', '.', 'é', 'µ', '→', '𝔘',
    '\u{feff}', '\u{0}',
];

const STRAYS: &[char] = &['"', '\\', '#', '=', '['];

const CASES: usize = 400;

/// Runs both readers (and their consumers) on `text` and checks the
/// contract: `Ok`, or an error on a line in `1..=lines`.
fn check(text: &str, info: &ScenarioInfo) {
    let lines = text.lines().count();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Err(e) = args_from_config(text) {
            assert!((1..=lines).contains(&e.line), "run file: {e} of {lines}");
        }
        match RunRequest::from_spec(text) {
            Ok(req) => drop(resolve(info, &req)),
            Err(e) => assert!((1..=lines).contains(&e.line), "spec: {e} of {lines}"),
        }
    }));
    if outcome.is_err() {
        let preview: String = text.chars().take(160).collect();
        panic!(
            "parser contract broken on a {}-byte input starting {preview:?}",
            text.len()
        );
    }
}

fn random_char(rng: &mut Lcg) -> char {
    if rng.usize(0, 2) == 0 {
        return ALPHABET[rng.usize(0, ALPHABET.len())];
    }
    loop {
        if let Some(c) = char::from_u32(rng.usize(0, 0x11_0000) as u32) {
            return c;
        }
    }
}

/// Byte offsets of every char boundary of `s`, end included.
fn boundaries(s: &str) -> Vec<usize> {
    s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
}

fn info() -> ScenarioInfo {
    ScenarioRegistry::global()
        .resolve("acoustic_wave")
        .unwrap()
        .info()
}

#[test]
fn the_seed_documents_parse() {
    let run = args_from_config(CONFIG).unwrap();
    assert_eq!(run.scenario, "acoustic_wave");
    assert_eq!(run.request.order, Some(4));
    let req = RunRequest::from_spec(SPEC).unwrap();
    assert_eq!(resolve(&info(), &req).unwrap().config.order, 6);
}

#[test]
fn random_utf8_never_panics() {
    let info = info();
    let mut rng = Lcg::new(0x5eed_0001);
    for _ in 0..CASES {
        // Random bytes made valid UTF-8 (invalid runs become U+FFFD).
        let bytes: Vec<u8> = (0..rng.usize(0, 256))
            .map(|_| rng.next_u64() as u8)
            .collect();
        check(&String::from_utf8_lossy(&bytes), &info);
        // Random scalar values, biased towards the parsers' syntax.
        let text: String = (0..rng.usize(0, 256))
            .map(|_| random_char(&mut rng))
            .collect();
        check(&text, &info);
    }
}

#[test]
fn truncated_and_mutated_documents_never_panic() {
    let info = info();
    let mut rng = Lcg::new(0x5eed_0002);
    for doc in [CONFIG, SPEC] {
        let cuts = boundaries(doc);
        for &cut in &cuts {
            check(&doc[..cut], &info);
        }
        for _ in 0..CASES {
            let at = cuts[rng.usize(0, cuts.len())];
            let mut text = doc.to_string();
            match rng.usize(0, 3) {
                0 if at < doc.len() => {
                    text.remove(at);
                }
                1 if at < doc.len() => {
                    text.remove(at);
                    text.insert(at, random_char(&mut rng));
                }
                _ => text.insert(at, random_char(&mut rng)),
            }
            check(&text, &info);
        }
    }
}

#[test]
fn runs_of_stray_syntax_never_panic() {
    let info = info();
    let mut rng = Lcg::new(0x5eed_0003);
    let prefixes = [
        "",
        "order = ",
        "[solver]\nkernel = ",
        "[run]\nout = \"",
        "x",
    ];
    for _ in 0..CASES {
        let mut text = prefixes[rng.usize(0, prefixes.len())].to_string();
        for _ in 0..rng.usize(1, 64) {
            text.push(match rng.usize(0, 8) {
                0 => '\n',
                _ => STRAYS[rng.usize(0, STRAYS.len())],
            });
        }
        check(&text, &info);
    }
}

#[test]
fn a_64_kib_line_never_panics() {
    let info = info();
    const N: usize = 64 * 1024;
    for line in [
        format!("order = {}", "9".repeat(N)),
        format!("kernel = \"{}\"", "\\".repeat(N)),
        format!("kernel = \"{}\"", "\\".repeat(N + 1)),
        format!("[{}]\nx = 1", "a".repeat(N)),
        "#".repeat(N),
        "=".repeat(N),
        "[".repeat(N),
        "é".repeat(N / 2),
        format!("{CONFIG}out = \"{}\"\n", "x".repeat(N)),
        format!("{SPEC}cfl = {}\n", "0".repeat(N)),
    ] {
        check(&line, &info);
    }
}
