//! CLI parser and driver tests: every user mistake must come back as an
//! actionable [`CliError`], never a panic; the smoke gate must cover
//! every registered scenario and the documented gallery.

use aderdg_cli::{
    args_from_config, execute_run, expand_sweep, missing_gallery_sections, parse_args, render_list,
    render_summary, run_sweep, write_receivers_csv, write_series_csv, Command, RunArgs, USAGE,
};
use aderdg_core::engine::SteppingMode;
use aderdg_core::scenario::{RunRequest, ScenarioRegistry, SOLVER_KEYS};
use aderdg_core::tune::TuningMode;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parses_a_full_run_command() {
    let cmd = parse_args(&args(&[
        "--scenario",
        "loh1",
        "--order",
        "4",
        "--kernel",
        "aosoa_splitck",
        "--stepping",
        "lts",
        "--tuning",
        "model",
        "--cells",
        "3",
        "--t-end",
        "0.5",
        "--block-size",
        "auto",
        "--cfl",
        "0.35",
        "--out",
        "run.csv",
    ]))
    .unwrap();
    let Command::Run(run) = cmd else {
        panic!("expected a run command");
    };
    assert_eq!(run.scenario, "loh1");
    assert_eq!(run.request.order, Some(4));
    assert_eq!(run.request.kernel.as_deref(), Some("aosoa_splitck"));
    assert_eq!(run.request.stepping, Some(SteppingMode::Lts));
    assert_eq!(run.request.tuning, Some(TuningMode::Model));
    assert_eq!(run.request.cells, Some(3));
    assert_eq!(run.request.t_end, Some(0.5));
    assert_eq!(run.request.block_size, Some(None));
    assert_eq!(run.request.cfl, Some(0.35));
    assert_eq!(run.out.as_deref(), Some(std::path::Path::new("run.csv")));
    assert!(!run.request.smoke);
}

#[test]
fn unknown_flag_is_an_actionable_error() {
    let e = parse_args(&args(&["--scenario", "loh1", "--warp", "9"])).unwrap_err();
    assert!(e.message.contains("unknown flag `--warp`"), "{e}");
    assert!(e.message.contains("--help"), "{e}");
}

#[test]
fn bad_values_are_actionable_errors() {
    for (cli, needle) in [
        (
            vec!["--scenario", "x", "--order", "four"],
            "invalid value `four` for --order",
        ),
        (vec!["--scenario", "x", "--cfl", "fast"], "--cfl"),
        (vec!["--scenario", "x", "--stepping", "warp"], "global|lts"),
        (
            vec!["--scenario", "x", "--tuning", "lucky"],
            "expected static|model)",
        ),
        (
            vec!["--scenario", "x", "--tuning", "probe"],
            "expected static|model)",
        ),
        (
            vec!["--scenario", "x", "--width", "mmx"],
            "sse|avx2|avx512|host",
        ),
        (
            vec!["--scenario", "x", "--block-size", "0"],
            "auto or an integer >= 1",
        ),
        (
            vec!["--scenario", "x", "--t-end"],
            "--t-end requires a value",
        ),
    ] {
        let e = parse_args(&args(&cli)).unwrap_err();
        assert!(e.message.contains(needle), "{cli:?}: {e}");
    }
}

#[test]
fn missing_scenario_is_an_actionable_error() {
    let e = parse_args(&args(&["--order", "4"])).unwrap_err();
    assert!(e.message.contains("missing scenario"), "{e}");
    assert!(e.message.contains("--list"), "{e}");
    let e = parse_args(&args(&[])).unwrap_err();
    assert!(e.message.contains("no arguments"), "{e}");
}

#[test]
fn unknown_scenario_lists_the_registry() {
    let run = RunArgs {
        scenario: "warp_drive".into(),
        ..RunArgs::default()
    };
    let e = execute_run(&run).unwrap_err();
    assert!(e.message.contains("unknown scenario `warp_drive`"), "{e}");
    assert!(e.message.contains("loh1"), "{e}");
}

#[test]
fn invalid_override_fails_the_run_not_the_process() {
    let run = RunArgs {
        scenario: "acoustic_wave".into(),
        request: RunRequest {
            kernel: Some("turbo".into()),
            smoke: true,
            ..RunRequest::default()
        },
        ..RunArgs::default()
    };
    let e = execute_run(&run).unwrap_err();
    assert!(e.message.contains("unknown kernel `turbo`"), "{e}");
}

/// Writes `text` to a run file named `name` in a per-test directory.
fn run_file(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("aderdg-cli-test-config");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Every key a run file and a flag can both set: the file sets one
/// value, the flag another, and the flag wins — so a key dropped from the
/// CLI's flag overlay, but still parsed, fails here instead of ignoring
/// the flag.
#[test]
fn config_file_parses_and_flags_override() {
    let rows = [
        ("order", "4", "5"),
        ("kernel", "generic", "log"),
        ("cfl", "0.3", "0.25"),
        ("width", "sse", "avx2"),
        ("block_size", "4", "8"),
        ("tuning", "static", "model"),
        ("stepping", "global", "lts"),
        ("cells", "3", "4"),
        ("t_end", "0.2", "0.3"),
        ("snapshot", "file.csv", "flag.csv"),
        ("save_checkpoint", "file.ckpt", "flag.ckpt"),
    ];
    let keys: Vec<&str> = rows.iter().map(|r| r.0).collect();
    assert_eq!(keys[..SOLVER_KEYS.len()], *SOLVER_KEYS);
    let mut text = String::from("# run file\nscenario = acoustic_wave\nout = run.csv  # series\n");
    let (mut from_file, mut from_flags) = (RunRequest::new(), RunRequest::new());
    let path = run_file("run.spec", "");
    let mut cli = vec!["--config".to_string(), path.to_str().unwrap().to_string()];
    for (key, file_value, flag_value) in rows {
        text.push_str(&format!("{key} = {file_value}\n"));
        assert_eq!(from_file.set(key, file_value), Ok(true), "{key}");
        assert_eq!(from_flags.set(key, flag_value), Ok(true), "{key}");
        cli.push(format!("--{}", key.replace('_', "-")));
        cli.push(flag_value.to_string());
    }
    std::fs::write(&path, &text).unwrap();
    let request_of = |cli: &[String]| {
        let Command::Run(run) = parse_args(cli).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(run.scenario, "acoustic_wave");
        assert_eq!(run.out, Some(std::path::PathBuf::from("run.csv")));
        format!("{:?}", run.request)
    };
    assert_eq!(request_of(&cli[..2]), format!("{from_file:?}"));
    assert_eq!(request_of(&cli), format!("{from_flags:?}"));
}

#[test]
fn config_rejects_unknown_tables_keys_and_bad_values() {
    for (text, line, needle) in [
        ("[plotting]\nx = 1\n", 1, "expected `key = value`"),
        (
            "scenario = acoustic_wave\ncolour = red\n",
            2,
            "unknown key `colour`",
        ),
        (
            "cells = 3\norder = four\n",
            2,
            "invalid value `four` for order",
        ),
        ("smoke = maybe\n", 1, "true|false"),
        ("out = \"a#b\"\n", 1, "values are bare"),
    ] {
        let path = run_file("bad.spec", text);
        let e = parse_args(&args(&["--config", path.to_str().unwrap()])).unwrap_err();
        let at = format!("{}: spec error (line {line})", path.display());
        assert!(e.message.contains(&at), "`{text}`: {e}");
        assert!(e.message.contains(needle), "`{text}`: {e}");
    }
}

/// The README's `my_solver.spec` block.
fn readme_spec() -> &'static str {
    let readme = include_str!("../../../README.md");
    let block = &readme[readme
        .find("# my_solver.spec\n")
        .expect("README shows my_solver.spec")..];
    &block[..block.find("```").unwrap()]
}

#[test]
fn spec_and_run_file_readers_agree() {
    // One format, two callers: the paper's spec file reads the same
    // through `from_spec` and through `aderdg-run --config`.
    let spec = readme_spec();
    let from_spec = RunRequest::from_spec(spec).unwrap();
    let run = args_from_config(spec).unwrap();
    assert_eq!(from_spec.order, Some(6));
    assert_eq!(format!("{from_spec:?}"), format!("{:?}", run.request));
    assert!(run.scenario.is_empty() && run.out.is_none() && run.receivers.is_none());
    for (text, line, needle) in [
        ("order = 4\norder = 5\n", 2, "repeated key `order`"),
        ("stepping = \"lts\"\n", 1, "values are bare"),
        ("[solver]\n", 1, "expected `key = value`"),
    ] {
        let e = RunRequest::from_spec(text).unwrap_err();
        assert_eq!(
            (e.line, e.message.contains(needle)),
            (line, true),
            "{text:?}: {e}"
        );
        assert_eq!(args_from_config(text).unwrap_err(), e, "{text:?}");
    }
}

#[test]
fn smoke_all_covers_every_scenario() {
    // The real gate CI runs — against the real gallery document.
    let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/SCENARIOS.md");
    let mut log = Vec::new();
    aderdg_cli::smoke_all(&docs, &mut log).unwrap();
    let log = String::from_utf8(log).unwrap();
    let smoke: Vec<&str> = log.lines().filter(|l| l.starts_with("smoke ")).collect();
    let names = ScenarioRegistry::global().names();
    assert_eq!(
        smoke.len(),
        names.len(),
        "one smoke line per scenario: {log}"
    );
    for (line, name) in smoke.iter().zip(names) {
        assert_eq!(line.split_whitespace().nth(1), Some(name), "{log}");
    }
}

#[test]
fn gallery_check_reports_missing_sections() {
    let missing = missing_gallery_sections("# empty\n");
    assert_eq!(
        missing.len(),
        ScenarioRegistry::global().names().len(),
        "an empty gallery must miss every scenario"
    );
    // A heading alone (without the reproduction command) does not count.
    let text = "## `acoustic_wave` — something\n";
    assert!(missing_gallery_sections(text).contains(&"acoustic_wave"));
    let text = "## `acoustic_wave` — something\n```sh\naderdg-run --scenario acoustic_wave\n```\n";
    assert!(!missing_gallery_sections(text).contains(&"acoustic_wave"));
}

#[test]
fn run_outputs_series_and_receiver_csv() {
    let run = RunArgs {
        scenario: "loh1".into(),
        request: RunRequest::smoke(),
        ..RunArgs::default()
    };
    let summary = execute_run(&run).unwrap();
    assert_eq!(summary.scenario, "loh1");
    assert_eq!(summary.receivers.len(), 3);

    let mut series = Vec::new();
    write_series_csv(&summary, &mut series).unwrap();
    let series = String::from_utf8(series).unwrap();
    assert!(series.starts_with("t,steps,l2_norm,l2_error\n"));
    // Header + initial point + one per smoke step; loh1 has no exact
    // solution, so the error column is empty.
    assert_eq!(series.lines().count(), 2 + summary.steps);
    assert!(series.lines().nth(1).unwrap().ends_with(','));

    let mut recv = Vec::new();
    write_receivers_csv(&summary, &mut recv).unwrap();
    let recv = String::from_utf8(recv).unwrap();
    assert!(recv.starts_with("receiver,x,y,z,t"));
    assert_eq!(recv.lines().count(), 1 + 3 * summary.steps);

    let text = render_summary(&summary);
    assert!(text.contains("scenario loh1"));
    assert!(text.contains("receiver(s) recorded"));
}

#[test]
fn summary_header_names_the_stepping_mode() {
    let header = |stepping| {
        let mut request = RunRequest::smoke();
        request.stepping = Some(stepping);
        let run = RunArgs {
            scenario: "acoustic_layered".into(),
            request,
            ..RunArgs::default()
        };
        let summary = execute_run(&run).unwrap();
        assert_eq!(summary.stepping, stepping);
        let header = render_summary(&summary).lines().next().unwrap().to_string();
        (header, summary.lts_levels)
    };
    let (global, one) = header(SteppingMode::Global);
    let (lts, levels) = header(SteppingMode::Lts);
    assert_eq!(one, 1, "global stepping is one cluster");
    assert!(
        levels > 1,
        "the layered medium clusters into {levels} level(s)"
    );
    assert!(global.ends_with(", stepping global"), "{global}");
    let mode = format!("lts ({levels} levels)");
    assert!(lts.ends_with(&format!(", stepping {mode}")), "{lts}");
    assert_eq!(
        global.trim_end_matches("global"),
        lts.trim_end_matches(&mode),
        "the mode and its level count are all that tell the two headers apart"
    );
}

#[test]
fn list_renders_every_scenario() {
    let text = render_list();
    for name in ScenarioRegistry::global().names() {
        assert!(text.contains(name), "`{name}` missing from --list");
    }
}

#[test]
fn checkpoint_flags_parse() {
    let cmd = parse_args(&args(&[
        "--scenario",
        "acoustic_wave",
        "--smoke",
        "--save-checkpoint",
        "state.ckpt",
    ]))
    .unwrap();
    let Command::Run(run) = cmd else {
        panic!("expected a run command");
    };
    assert_eq!(
        run.request.save_checkpoint.as_deref(),
        Some(std::path::Path::new("state.ckpt"))
    );

    // --resume needs no --scenario: the checkpoint names it.
    let cmd = parse_args(&args(&["--resume", "state.ckpt", "--t-end", "2.0"])).unwrap();
    let Command::Run(run) = cmd else {
        panic!("expected a run command");
    };
    assert!(run.scenario.is_empty());
    assert_eq!(
        run.resume.as_deref(),
        Some(std::path::Path::new("state.ckpt"))
    );
    assert_eq!(run.request.t_end, Some(2.0));
}

#[test]
fn resume_round_trips_through_real_checkpoint_files() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("aderdg-cli-resume-{}.ckpt", std::process::id()));

    // Pause a smoke run at step 1 into a checkpoint.
    let mut request = RunRequest::smoke();
    request.set("tuning", "static").unwrap();
    request.save_checkpoint = Some(ck.clone());
    let control = std::sync::Arc::new(aderdg_core::scenario::RunControl::new());
    control.pause_at_step(1);
    request.control = Some(control);
    let paused = execute_run(&RunArgs {
        scenario: "acoustic_wave".into(),
        request,
        ..RunArgs::default()
    })
    .unwrap();
    assert!(paused.paused);

    // Resume purely from the file — no scenario, knobs from the
    // checkpoint — and finish the run.
    let resumed = execute_run(&RunArgs {
        resume: Some(ck.clone()),
        ..RunArgs::default()
    })
    .unwrap();
    assert!(!resumed.paused);
    assert_eq!(resumed.scenario, "acoustic_wave");

    // A mismatched --scenario is rejected before any engine is built.
    let e = execute_run(&RunArgs {
        scenario: "loh1".into(),
        resume: Some(ck.clone()),
        ..RunArgs::default()
    })
    .unwrap_err();
    assert!(e.message.contains("is for scenario `acoustic_wave`"), "{e}");

    // A checkpoint pinning a tuning value this build does not know is
    // rejected with the ordinary bad-value wording.
    let mut stale = aderdg_core::checkpoint::Checkpoint::load(&ck).unwrap();
    let tuning = stale.knobs.iter_mut().find(|(k, _)| k == "tuning").unwrap();
    tuning.1 = "probe".into();
    stale.save(&ck).unwrap();
    let e = execute_run(&RunArgs {
        resume: Some(ck.clone()),
        ..RunArgs::default()
    })
    .unwrap_err();
    assert!(
        e.message
            .contains("checkpoint knob `tuning = probe` is invalid (expected static|model)"),
        "{e}"
    );
    let _ = std::fs::remove_file(&ck);

    // A missing checkpoint file is an actionable error.
    let e = execute_run(&RunArgs {
        resume: Some(dir.join("aderdg-cli-no-such.ckpt")),
        ..RunArgs::default()
    })
    .unwrap_err();
    assert!(e.message.contains("cannot read"), "{e}");
}

#[test]
fn sweep_parses_expands_and_rejects_conflicts() {
    let cmd = parse_args(&args(&[
        "--scenario",
        "acoustic_wave",
        "--smoke",
        "--sweep",
        "kernel=generic,splitck",
        "--sweep",
        "order=2,3",
        "--jobs",
        "2",
    ]))
    .unwrap();
    let Command::Run(run) = cmd else {
        panic!("expected a run command");
    };
    assert_eq!(run.jobs, Some(2));
    let combos = expand_sweep(&run.request, &run.sweep).unwrap();
    assert_eq!(combos.len(), 4);
    assert_eq!(combos[0].0, "kernel=generic order=2");
    assert_eq!(combos[3].0, "kernel=splitck order=3");
    assert_eq!(combos[3].1.kernel.as_deref(), Some("splitck"));
    assert_eq!(combos[3].1.order, Some(3));

    // kernel=* expands to the whole registry.
    let combos =
        expand_sweep(&RunRequest::smoke(), &[("kernel".into(), vec!["*".into()])]).unwrap();
    assert_eq!(
        combos.len(),
        aderdg_core::KernelRegistry::global().names().len()
    );

    for (cli, needle) in [
        (
            vec!["--scenario", "x", "--sweep", "kernels"],
            "expected key=value1,value2",
        ),
        (
            vec!["--scenario", "x", "--jobs", "2"],
            "--jobs only applies to --sweep",
        ),
        (
            vec!["--scenario", "x", "--sweep", "order=2", "--jobs", "0"],
            "invalid value `0` for --jobs",
        ),
        (
            vec!["--scenario", "x", "--sweep", "order=2", "--out", "a.csv"],
            "--out cannot be combined with --sweep",
        ),
        (
            vec![
                "--scenario",
                "x",
                "--sweep",
                "order=2",
                "--resume",
                "a.ckpt",
            ],
            "--resume cannot be combined with --sweep",
        ),
    ] {
        let e = parse_args(&args(&cli)).unwrap_err();
        assert!(e.message.contains(needle), "{cli:?}: {e}");
    }

    let e = expand_sweep(&RunRequest::smoke(), &[("warp".into(), vec!["9".into()])]).unwrap_err();
    assert!(e.message.contains("unknown --sweep key `warp`"), "{e}");
}

#[test]
fn sweep_runs_every_combination_and_reports_failures() {
    let run = RunArgs {
        scenario: "acoustic_wave".into(),
        request: RunRequest::smoke(),
        sweep: vec![
            ("kernel".into(), vec!["generic".into(), "splitck".into()]),
            ("stepping".into(), vec!["global".into(), "lts".into()]),
        ],
        jobs: Some(4),
        ..RunArgs::default()
    };
    let mut log = Vec::new();
    run_sweep(&run, &mut log).unwrap();
    let log = String::from_utf8(log).unwrap();
    assert!(log.contains("4 combination(s)"), "{log}");
    assert_eq!(log.matches("  ok   ").count(), 4, "{log}");

    // A bad kernel value fails its combination — and the sweep.
    let run = RunArgs {
        scenario: "acoustic_wave".into(),
        request: RunRequest::smoke(),
        sweep: vec![("kernel".into(), vec!["generic".into(), "turbo".into()])],
        ..RunArgs::default()
    };
    let mut log = Vec::new();
    let e = run_sweep(&run, &mut log).unwrap_err();
    assert!(e.message.contains("1 of 2"), "{e}");
    let log = String::from_utf8(log).unwrap();
    assert!(log.contains("  FAIL kernel=turbo"), "{log}");
    assert!(log.contains("unknown kernel"), "{log}");
}

#[test]
fn solver_table_rejects_run_level_keys() {
    // A spec file holds solver keys only; a run file adds the run level.
    let run_level = ["cells", "t_end", "smoke", "snapshot", "save_checkpoint"];
    for key in run_level.iter().chain(&["scenario", "out", "receivers"]) {
        let e = RunRequest::from_spec(&format!("order = 4\n{key} = 4\n")).unwrap_err();
        assert_eq!(e.line, 2, "{key}");
        assert!(
            e.message.contains(&format!("unknown key `{key}`")),
            "{key}: {e}"
        );
    }
    for key in SOLVER_KEYS {
        let text = format!("{key} = ?\n");
        let spec = RunRequest::from_spec(&text).map(|r| format!("{r:?}"));
        let run = args_from_config(&text).map(|a| format!("{:?}", a.request));
        assert_eq!(spec, run, "{key}");
    }
    let run = args_from_config(
        "scenario = acoustic_wave\nsmoke = true\nsave_checkpoint = out.ckpt\norder = 3\n",
    )
    .unwrap();
    assert_eq!(run.scenario, "acoustic_wave");
    assert!(run.request.smoke);
    assert_eq!(run.request.order, Some(3));
    assert_eq!(
        run.request.save_checkpoint.as_deref(),
        Some(std::path::Path::new("out.ckpt"))
    );
}

/// Keys this build does not run — the shard size (derived from the mesh
/// and the block size) and the quadrature rule (Gauss-Legendre is the one
/// node set) — are unknown on every route that once took them.
#[test]
fn shard_size_is_an_unknown_key_on_every_route() {
    for (key, value) in [
        ("shard_size", "4"),
        ("rule", "gauss_legendre"),
        ("pipeline", "sharded"),
    ] {
        let flag = format!("--{}", key.replace('_', "-"));
        let e = parse_args(&args(&["--scenario", "x", &flag, value])).unwrap_err();
        assert!(e.message.contains(&format!("unknown flag `{flag}`")), "{e}");
        let e = RunRequest::from_spec(&format!("order = 4\n{key} = {value}\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains(&format!("unknown key `{key}`")), "{e}");
        let text = format!("scenario = acoustic_wave\n{key} = {value}\n");
        let e = args_from_config(&text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains(&format!("unknown key `{key}`")), "{e}");
        let sweep = [(key.to_string(), vec![value.to_string()])];
        let e = expand_sweep(&RunRequest::smoke(), &sweep).unwrap_err();
        assert!(
            e.message.contains(&format!("unknown --sweep key `{key}`")),
            "{e}"
        );
    }
}

/// `--help` cannot drift from the knob list: the SOLVER OPTIONS block
/// holds one `--flag` per [`SOLVER_KEYS`] entry and no other flag.
#[test]
fn usage_lists_exactly_the_solver_keys() {
    let block = &USAGE[USAGE.find("SOLVER OPTIONS").unwrap()..];
    let block = &block[..block.find("\n\n").unwrap()];
    let mut flags: Vec<&str> = block
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .collect();
    let mut want: Vec<String> = SOLVER_KEYS
        .iter()
        .map(|k| format!("--{}", k.replace('_', "-")))
        .collect();
    flags.sort_unstable();
    want.sort_unstable();
    assert_eq!(flags, want);
}

#[test]
fn help_and_list_commands_parse() {
    assert!(matches!(
        parse_args(&args(&["--help"])).unwrap(),
        Command::Help
    ));
    assert!(matches!(
        parse_args(&args(&["--list"])).unwrap(),
        Command::List
    ));
    assert!(matches!(
        parse_args(&args(&["--list-names"])).unwrap(),
        Command::ListNames
    ));
    let Command::SmokeAll { docs } = parse_args(&args(&["--smoke-all"])).unwrap() else {
        panic!("expected smoke-all");
    };
    assert_eq!(docs, std::path::PathBuf::from("docs/SCENARIOS.md"));
}
