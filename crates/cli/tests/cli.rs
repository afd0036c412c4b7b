//! CLI parser and driver tests: every user mistake must come back as an
//! actionable [`CliError`], never a panic; the smoke gate must cover
//! every registered scenario on both pipelines and the documented
//! gallery.

use aderdg_cli::{
    args_from_config, execute_run, expand_sweep, missing_gallery_sections, parse_args, render_list,
    render_summary, run_sweep, toml, write_receivers_csv, write_series_csv, Command, RunArgs,
};
use aderdg_core::engine::PipelineMode;
use aderdg_core::scenario::{RunRequest, ScenarioRegistry};
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
        "--pipeline",
        "sharded",
        "--tuning",
        "model",
        "--cells",
        "3",
        "--t-end",
        "0.5",
        "--block-size",
        "auto",
        "--shard-size",
        "6",
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
    assert_eq!(run.request.pipeline, Some(PipelineMode::Sharded));
    assert_eq!(run.request.tuning, Some(TuningMode::Model));
    assert_eq!(run.request.cells, Some(3));
    assert_eq!(run.request.t_end, Some(0.5));
    assert_eq!(run.request.block_size, Some(None));
    assert_eq!(run.request.shard_size, Some(Some(6)));
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
        (
            vec!["--scenario", "x", "--pipeline", "warp"],
            "barrier|sharded",
        ),
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
            vec!["--scenario", "x", "--rule", "simpson"],
            "gauss_legendre|gauss_lobatto",
        ),
        (
            vec!["--scenario", "x", "--block-size", "0"],
            "auto or an integer >= 1",
        ),
        (
            vec!["--scenario", "x", "--shard-size", "-3"],
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

#[test]
fn config_file_parses_and_flags_override() {
    let dir = std::env::temp_dir().join("aderdg-cli-test-config");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.toml");
    std::fs::write(
        &path,
        "[run]\n\
         scenario = \"acoustic_wave\"\n\
         t_end = 0.2\n\
         cells = 3\n\
         [solver]\n\
         order = 4\n\
         kernel = \"generic\"\n\
         pipeline = barrier\n",
    )
    .unwrap();
    let cmd = parse_args(&args(&["--config", path.to_str().unwrap(), "--order", "5"])).unwrap();
    let Command::Run(run) = cmd else {
        panic!("expected a run command");
    };
    assert_eq!(run.scenario, "acoustic_wave");
    assert_eq!(run.request.t_end, Some(0.2));
    assert_eq!(run.request.cells, Some(3));
    assert_eq!(run.request.order, Some(5)); // flag wins over the file
    assert_eq!(run.request.kernel.as_deref(), Some("generic"));
    assert_eq!(run.request.pipeline, Some(PipelineMode::Barrier));
}

#[test]
fn config_rejects_unknown_tables_keys_and_bad_values() {
    for (text, needle) in [
        ("[plotting]\nx = 1\n", "unknown table `[plotting]`"),
        ("[run]\ncolour = red\n", "unknown [run] key `colour`"),
        ("[solver]\ncells = 4\n", "unknown [solver] key `cells`"),
        ("[solver]\norder = four\n", "[solver] order"),
        ("[run]\nsmoke = maybe\n", "true|false"),
        ("scenario = \"x\"\n", "outside any table"),
    ] {
        let doc = toml::parse(text).unwrap();
        let e = args_from_config(&doc).unwrap_err();
        assert!(e.message.contains(needle), "`{text}`: {e}");
    }
}

#[test]
fn smoke_all_covers_every_scenario_and_both_pipelines() {
    // The real gate CI runs — against the real gallery document.
    let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/SCENARIOS.md");
    let mut log = Vec::new();
    aderdg_cli::smoke_all(&docs, &mut log).unwrap();
    let log = String::from_utf8(log).unwrap();
    for name in ScenarioRegistry::global().names() {
        assert!(log.contains(name), "no smoke line for `{name}`");
    }
    assert!(log.contains("Sharded") && log.contains("Barrier"));
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
            ("pipeline".into(), vec!["barrier".into(), "sharded".into()]),
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
    for key in ["cells", "t_end", "smoke", "snapshot", "save_checkpoint"] {
        let text = format!("[solver]\n{key} = 4\n");
        let doc = toml::parse(&text).unwrap();
        let e = args_from_config(&doc).unwrap_err();
        assert!(
            e.message.contains(&format!("unknown [solver] key `{key}`")),
            "{key}: {e}"
        );
    }
    // …but [run] accepts them.
    let doc = toml::parse(
        "[run]\nscenario = \"acoustic_wave\"\nsmoke = true\nsave_checkpoint = out.ckpt\n",
    )
    .unwrap();
    let run = args_from_config(&doc).unwrap();
    assert!(run.request.smoke);
    assert_eq!(
        run.request.save_checkpoint.as_deref(),
        Some(std::path::Path::new("out.ckpt"))
    );
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
