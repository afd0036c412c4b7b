//! # aderdg-cli
//!
//! The `aderdg-run` command-line driver: resolves a scenario from the
//! [`ScenarioRegistry`], applies solver overrides (every
//! [`SOLVER_KEYS`] knob is reachable as a flag or a run-file key), runs
//! it and reports — no Rust required to run a new setup. Unset knobs
//! keep the scenario's defaults. A run file (`--config`) is a spec file,
//! as read by [`RunRequest::from_spec`], that may also hold run-level
//! keys; both go through the one line reader [`read_lines`].
//!
//! ```text
//! aderdg-run --list
//! aderdg-run --scenario loh1 --order 4 --kernel aosoa_splitck \
//!            --pipeline sharded --tuning model --out run.csv
//! aderdg-run --scenario maxwell_cavity --config examples/maxwell_cavity.spec
//! aderdg-run --smoke-all            # CI gate: every scenario, both pipelines
//! ```
//!
//! The library half exists so the parser and the run plumbing are unit
//! testable; `src/main.rs` is a thin wrapper around [`run_cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aderdg_core::checkpoint::Checkpoint;
use aderdg_core::engine::PipelineMode;
use aderdg_core::jobs::{JobQueue, JobStatus};
use aderdg_core::scenario::{RunRequest, RunSummary, ScenarioRegistry, SOLVER_KEYS};
use aderdg_core::spec::{read_lines, SpecError};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use aderdg_core::report::{render_summary, write_receivers_csv, write_series_csv};

/// A user-facing CLI error (bad flag, bad value, failed run); never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl CliError {
    fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aderdg-run: {}", self.message)
    }
}

impl std::error::Error for CliError {}

/// The usage text (`--help`).
pub const USAGE: &str = "\
aderdg-run — scenario driver for the aderdg engine

USAGE:
  aderdg-run --list                      table of registered scenarios
  aderdg-run --list-names                scenario names only, one per line
  aderdg-run --scenario <name> [OPTIONS] run one scenario
  aderdg-run --config <file> [OPTIONS]   run from a spec file (`key = value`
                                         lines); flags override file values
  aderdg-run --smoke-all [--docs <file>] smoke-run every scenario on both
                                         pipelines and check the gallery doc
                                         (default docs/SCENARIOS.md)
  aderdg-run --help

SOLVER OPTIONS (defaults come from the scenario):
  --order <2..=15>          scheme order
  --kernel <key>            STP kernel registry key (see README)
  --cfl <0..0.45]           CFL safety factor
  --width <sse|avx2|avx512|host>
  --block-size <n|auto>     predictor block size
  --tuning <static|model>
  --pipeline <barrier|sharded>
  --stepping <global|lts>   global CFL dt, or clustered local time stepping

RUN OPTIONS:
  --cells <n>               cells per axis (uniform override)
  --t-end <t>               simulated end time
  --smoke                   tiny grid, 2 steps (CI smoke mode)
  --out <file>              write the checkpoint time series as CSV
  --snapshot <file>         write the final nodal state as CSV
  --receivers <file>        write receiver seismograms as CSV
  --save-checkpoint <file>  save a resumable engine checkpoint when the run
                            completes (or pauses)
  --resume <file>           resume from a saved checkpoint; solver knobs
                            default to the saved ones, flags still override

BATCH OPTIONS:
  --sweep <key=v1,v2,…>     run every combination of the swept keys through
                            the job queue (repeatable to cross keys;
                            `kernel=*` expands to every registered kernel)
  --jobs <n>                concurrent sweep jobs (default min(combos, 4))
";

/// A fully parsed run invocation.
#[derive(Debug, Clone, Default)]
pub struct RunArgs {
    /// Scenario registry key.
    pub scenario: String,
    /// Merged overrides handed to [`aderdg_core::scenario::Scenario::run`].
    pub request: RunRequest,
    /// Time-series CSV destination.
    pub out: Option<PathBuf>,
    /// Receiver-seismogram CSV destination.
    pub receivers: Option<PathBuf>,
    /// Checkpoint to resume from (`--resume`); the saved knobs become the
    /// request baseline and explicit flags override them.
    pub resume: Option<PathBuf>,
    /// `--sweep key=v1,v2,…` axes, crossed into a batch of runs.
    pub sweep: Vec<(String, Vec<String>)>,
    /// `--jobs`: concurrent sweep jobs.
    pub jobs: Option<usize>,
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub enum Command {
    /// `--help`.
    Help,
    /// `--list`: the scenario table.
    List,
    /// `--list-names`: machine-readable scenario names.
    ListNames,
    /// Run one scenario.
    Run(Box<RunArgs>),
    /// `--smoke-all`: every scenario × both pipelines + docs gate.
    SmokeAll {
        /// Gallery document to check (default `docs/SCENARIOS.md`).
        docs: PathBuf,
    },
}

/// Applies one solver/run key by delegating to [`RunRequest::set`] — the
/// single parser shared with run-file lines, `aderdg-serve` commands and
/// checkpoint replay (`what` names the source for error messages).
fn apply_key(req: &mut RunRequest, key: &str, value: &str, what: &str) -> Result<bool, CliError> {
    req.set(key, value).map_err(|e| {
        CliError::new(format!(
            "invalid value `{value}` for {what} (expected {})",
            e.expected
        ))
    })
}

/// Reads a run file (`--config`): a spec file that may also hold
/// run-level keys. [`read_lines`] checks the syntax; `scenario`, `out`
/// and `receivers` are the CLI's own, every other key goes through
/// [`RunRequest::set`] (the [`SOLVER_KEYS`] and `cells`, `t_end`,
/// `smoke`, `snapshot`, `save_checkpoint`). An unknown key or a bad
/// value is an error on its line.
pub fn args_from_config(text: &str) -> Result<RunArgs, SpecError> {
    let mut args = RunArgs::default();
    for line in read_lines(text)? {
        match line.key {
            "scenario" => args.scenario = line.value.to_string(),
            "out" => args.out = Some(PathBuf::from(line.value)),
            "receivers" => args.receivers = Some(PathBuf::from(line.value)),
            key => {
                if !line.apply(&mut args.request)? {
                    return Err(line.error(format!(
                        "unknown key `{key}` (a run file holds scenario|out|receivers, \
                         the solver keys {} and cells|t_end|smoke|snapshot|save_checkpoint)",
                        SOLVER_KEYS.join("|")
                    )));
                }
            }
        }
    }
    Ok(args)
}

/// Parses a command line (without the program name). Pure and total: any
/// mistake comes back as a [`CliError`], never a panic.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    if args.is_empty() {
        return Err(CliError::new(
            "no arguments; try `aderdg-run --list` or `aderdg-run --help`",
        ));
    }
    let mut scenario: Option<String> = None;
    let mut config: Option<PathBuf> = None;
    let mut docs: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut receivers: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut sweep: Vec<(String, Vec<String>)> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut req = RunRequest::default();
    let mut mode: Option<&'static str> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--list" => mode = Some("list"),
            "--list-names" => mode = Some("list-names"),
            "--smoke-all" => mode = Some("smoke-all"),
            "--smoke" => req.smoke = true,
            "--scenario" => scenario = Some(value_of("--scenario")?),
            "--config" => config = Some(PathBuf::from(value_of("--config")?)),
            "--docs" => docs = Some(PathBuf::from(value_of("--docs")?)),
            "--out" => out = Some(PathBuf::from(value_of("--out")?)),
            "--snapshot" => req.snapshot = Some(PathBuf::from(value_of("--snapshot")?)),
            "--receivers" => receivers = Some(PathBuf::from(value_of("--receivers")?)),
            "--resume" => resume = Some(PathBuf::from(value_of("--resume")?)),
            "--sweep" => sweep.push(parse_sweep_axis(&value_of("--sweep")?)?),
            "--jobs" => {
                let value = value_of("--jobs")?;
                jobs = Some(match value.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(CliError::new(format!(
                            "invalid value `{value}` for --jobs (expected a positive integer)"
                        )))
                    }
                });
            }
            flag if flag.starts_with("--") => {
                let key = flag.trim_start_matches("--").replace('-', "_");
                let value = value_of(flag)?;
                if !apply_key(&mut req, &key, &value, flag)? {
                    return Err(CliError::new(format!(
                        "unknown flag `{flag}` (see `aderdg-run --help`)"
                    )));
                }
            }
            other => {
                return Err(CliError::new(format!(
                    "unexpected argument `{other}` (see `aderdg-run --help`)"
                )))
            }
        }
    }

    match mode {
        Some("list") => return Ok(Command::List),
        Some("list-names") => return Ok(Command::ListNames),
        Some("smoke-all") => {
            return Ok(Command::SmokeAll {
                docs: docs.unwrap_or_else(|| PathBuf::from("docs/SCENARIOS.md")),
            })
        }
        _ => {}
    }

    // A run: from a run file, a --scenario flag, or both (flags win).
    let mut run = match &config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read {}: {e}", path.display())))?;
            args_from_config(&text)
                .map_err(|e| CliError::new(format!("{}: {e}", path.display())))?
        }
        None => RunArgs::default(),
    };
    if let Some(name) = scenario {
        run.scenario = name;
    }
    if run.scenario.is_empty() && resume.is_none() {
        return Err(CliError::new(
            "missing scenario: pass `--scenario <name>`, `--resume <checkpoint>` or a run \
             file with `scenario = …` (`aderdg-run --list` shows what is registered)",
        ));
    }
    // Flag overrides on top of the run file.
    merge_requests(&mut run.request, req);
    if out.is_some() {
        run.out = out;
    }
    if receivers.is_some() {
        run.receivers = receivers;
    }
    run.resume = resume;
    run.sweep = sweep;
    run.jobs = jobs;
    if run.jobs.is_some() && run.sweep.is_empty() {
        return Err(CliError::new("--jobs only applies to --sweep batch runs"));
    }
    if !run.sweep.is_empty() {
        let conflict = [
            ("--out", run.out.is_some()),
            ("--receivers", run.receivers.is_some()),
            ("--snapshot", run.request.snapshot.is_some()),
            ("--save-checkpoint", run.request.save_checkpoint.is_some()),
            ("--resume", run.resume.is_some()),
        ]
        .iter()
        .find_map(|(flag, set)| set.then_some(*flag));
        if let Some(flag) = conflict {
            return Err(CliError::new(format!(
                "{flag} cannot be combined with --sweep (per-run outputs are ambiguous \
                 across a batch)"
            )));
        }
    }
    Ok(Command::Run(Box::new(run)))
}

/// Parses one `--sweep key=v1,v2,…` axis.
fn parse_sweep_axis(spec: &str) -> Result<(String, Vec<String>), CliError> {
    let bad = || {
        CliError::new(format!(
            "invalid --sweep `{spec}` (expected key=value1,value2,…)"
        ))
    };
    let (key, values) = spec.split_once('=').ok_or_else(bad)?;
    let key = key.trim().replace('-', "_");
    let values: Vec<String> = values
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(String::from)
        .collect();
    if key.is_empty() || values.is_empty() {
        return Err(bad());
    }
    Ok((key, values))
}

/// Overlays `over` (flag values) onto `base` (run-file values).
fn merge_requests(base: &mut RunRequest, over: RunRequest) {
    macro_rules! take {
        ($($field:ident),*) => {
            $(if over.$field.is_some() { base.$field = over.$field; })*
        };
    }
    take!(
        order,
        kernel,
        cfl,
        width,
        block_size,
        tuning,
        pipeline,
        stepping,
        cells,
        t_end,
        snapshot,
        save_checkpoint
    );
    base.smoke |= over.smoke;
}

/// Renders the `--list` table.
pub fn render_list() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:<9} {:>5} {:>10} {:>7} {:<14} {:<5}  {}\n",
        "scenario", "system", "order", "cells", "t_end", "kernel", "exact", "description"
    ));
    for &scenario in ScenarioRegistry::global().scenarios() {
        let i = scenario.info();
        out.push_str(&format!(
            "{:<20} {:<9} {:>5} {:>10} {:>7} {:<14} {:<5}  {}\n",
            i.name,
            i.system,
            i.order,
            format!("{}x{}x{}", i.cells[0], i.cells[1], i.cells[2]),
            i.t_end,
            i.kernel,
            if i.has_exact { "yes" } else { "no" },
            i.title
        ));
    }
    out
}

/// Runs one scenario invocation (or checkpoint resume) and writes its
/// outputs.
pub fn execute_run(args: &RunArgs) -> Result<RunSummary, CliError> {
    let (name, request) = match &args.resume {
        Some(path) => {
            let ck = Checkpoint::load(path).map_err(CliError::new)?;
            if !args.scenario.is_empty() && args.scenario != ck.scenario {
                return Err(CliError::new(format!(
                    "checkpoint {} is for scenario `{}`, not `{}`",
                    path.display(),
                    ck.scenario,
                    args.scenario
                )));
            }
            // Saved knobs are the baseline; explicit flags override them.
            let mut request = ck.to_request().map_err(CliError::new)?;
            merge_requests(&mut request, args.request.clone());
            let name = ck.scenario.clone();
            request.resume = Some(Arc::new(ck));
            (name, request)
        }
        None => (args.scenario.clone(), args.request.clone()),
    };
    let scenario = ScenarioRegistry::global().resolve(&name).ok_or_else(|| {
        CliError::new(format!(
            "unknown scenario `{name}` (registered: {})",
            ScenarioRegistry::global().names().join(", ")
        ))
    })?;
    let summary = scenario.run(&request).map_err(CliError::new)?;
    if let Some(path) = &args.out {
        write_file(path, |f| write_series_csv(&summary, f))?;
    }
    if let Some(path) = &args.receivers {
        write_file(path, |f| write_receivers_csv(&summary, f))?;
    }
    Ok(summary)
}

/// Writes a CLI output file atomically (`<path>.tmp` + rename), so an
/// interrupted run never leaves a half-written CSV behind.
fn write_file(
    path: &Path,
    f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), CliError> {
    aderdg_core::output::write_atomic(path, f)
        .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))
}

/// Expands the `--sweep` axes into the cross-product of concrete
/// requests, each labelled `key=value key=value …`. `kernel=*` expands
/// to every registered kernel.
pub fn expand_sweep(
    base: &RunRequest,
    sweep: &[(String, Vec<String>)],
) -> Result<Vec<(String, RunRequest)>, CliError> {
    let mut combos = vec![(String::new(), base.clone())];
    for (key, values) in sweep {
        let values: Vec<String> = if key == "kernel" && values == &["*".to_string()] {
            aderdg_core::KernelRegistry::global()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            values.clone()
        };
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for (label, request) in &combos {
            for value in &values {
                let mut request = request.clone();
                if !apply_key(&mut request, key, value, &format!("--sweep {key}"))? {
                    return Err(CliError::new(format!(
                        "unknown --sweep key `{key}` (see `aderdg-run --help` for solver keys)"
                    )));
                }
                let mut label = label.clone();
                if !label.is_empty() {
                    label.push(' ');
                }
                label.push_str(&format!("{key}={value}"));
                next.push((label, request));
            }
        }
        combos = next;
    }
    Ok(combos)
}

/// The `--sweep` batch mode: every combination goes through a
/// [`JobQueue`] (all engines share the one process-wide worker pool) and
/// the outcome table is printed as jobs finish. Any failed combination
/// fails the whole sweep.
pub fn run_sweep(args: &RunArgs, log: &mut dyn Write) -> Result<(), CliError> {
    let combos = expand_sweep(&args.request, &args.sweep)?;
    let runners = args.jobs.unwrap_or_else(|| combos.len().min(4));
    let queue = JobQueue::new(runners);
    let mut jobs = Vec::with_capacity(combos.len());
    for (label, request) in combos {
        let job = queue
            .submit(&args.scenario, request)
            .map_err(CliError::new)?;
        jobs.push((label, job));
    }
    let _ = writeln!(
        log,
        "sweep: {} combination(s) of `{}` over {runners} concurrent job(s)",
        jobs.len(),
        args.scenario
    );
    let mut failed = 0;
    for (label, job) in &jobs {
        match job.wait() {
            JobStatus::Done => {
                let Some(s) = job.summary() else {
                    return Err(CliError::new(format!(
                        "job `{label}` reported done without a summary"
                    )));
                };
                let _ = writeln!(
                    log,
                    "  ok   {label:<44} {} steps, t = {:.6}, L2 norm {:.6e}",
                    s.steps, s.t_end, s.l2_norm
                );
            }
            status => {
                failed += 1;
                let _ = writeln!(
                    log,
                    "  FAIL {label:<44} {}: {}",
                    status.as_str(),
                    job.error().unwrap_or_else(|| "no details".into())
                );
            }
        }
    }
    if failed > 0 {
        return Err(CliError::new(format!(
            "{failed} of {} sweep combination(s) failed",
            jobs.len()
        )));
    }
    Ok(())
}

/// Checks that every registered scenario has a gallery section (a `##`
/// heading naming it in backticks) and a reproduction command
/// (`--scenario <name>`) in the docs file. Returns the missing names.
pub fn missing_gallery_sections(docs_text: &str) -> Vec<&'static str> {
    let mut missing = Vec::new();
    for name in ScenarioRegistry::global().names() {
        let heading = docs_text
            .lines()
            .any(|l| l.starts_with("## ") && l.contains(&format!("`{name}`")));
        let command = docs_text.contains(&format!("--scenario {name}"));
        if !(heading && command) {
            missing.push(name);
        }
    }
    missing
}

/// The `--smoke-all` gate: every registered scenario runs in smoke mode
/// on **both** pipelines, and every one has a `docs/SCENARIOS.md`
/// section — a new scenario cannot land unrunnable or undocumented.
pub fn smoke_all(docs: &Path, log: &mut dyn Write) -> Result<(), CliError> {
    for &scenario in ScenarioRegistry::global().scenarios() {
        let info = scenario.info();
        for pipeline in [PipelineMode::Sharded, PipelineMode::Barrier] {
            let req = RunRequest {
                pipeline: Some(pipeline),
                ..RunRequest::smoke()
            };
            let summary = scenario.run(&req).map_err(|e| {
                CliError::new(format!("scenario `{}` ({pipeline:?}): {e}", info.name))
            })?;
            if !summary.l2_norm.is_finite() {
                return Err(CliError::new(format!(
                    "scenario `{}` ({pipeline:?}): non-finite L2 norm after {} steps",
                    info.name, summary.steps
                )));
            }
            let _ = writeln!(
                log,
                "smoke {:<20} {pipeline:?}: {} steps, L2 norm {:.3e} — ok",
                info.name, summary.steps, summary.l2_norm
            );
        }
    }
    let text = std::fs::read_to_string(docs).map_err(|e| {
        CliError::new(format!(
            "cannot read the scenario gallery {}: {e}",
            docs.display()
        ))
    })?;
    let missing = missing_gallery_sections(&text);
    if !missing.is_empty() {
        return Err(CliError::new(format!(
            "scenario(s) missing from the gallery {} (need a `## …` heading and an \
             `aderdg-run --scenario <name>` command): {}",
            docs.display(),
            missing.join(", ")
        )));
    }
    let _ = writeln!(
        log,
        "gallery {} covers all registered scenarios",
        docs.display()
    );
    Ok(())
}

/// The whole CLI: parse, dispatch, print to `stdout`/`log`.
pub fn run_cli(args: &[String], stdout: &mut dyn Write) -> Result<(), CliError> {
    match parse_args(args)? {
        Command::Help => {
            let _ = write!(stdout, "{USAGE}");
            Ok(())
        }
        Command::List => {
            let _ = write!(stdout, "{}", render_list());
            Ok(())
        }
        Command::ListNames => {
            for name in ScenarioRegistry::global().names() {
                let _ = writeln!(stdout, "{name}");
            }
            Ok(())
        }
        Command::Run(run) if !run.sweep.is_empty() => run_sweep(&run, stdout),
        Command::Run(run) => {
            let summary = execute_run(&run)?;
            let _ = write!(stdout, "{}", render_summary(&summary));
            Ok(())
        }
        Command::SmokeAll { docs } => smoke_all(&docs, stdout),
    }
}
