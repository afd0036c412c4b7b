//! `bench_e2e` — the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, in this process; the last stdout line is the result:
//!     {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//! bench_e2e [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     all five workloads, each in a fresh child process of this binary
//! bench_e2e --smoke      all five at smoke size, every check on
//! bench_e2e --aa         two full sets; fails if any end-to-end metric
//!                        differs by more than its bound
//! ```
//!
//! `BENCHMARK.json` at the repo root names the first form as the command;
//! see `benchmark/README.md` for the metric glossary.

mod host;
mod json;
mod layers;
mod serve;
mod stats;
mod trace;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{
    Better, Opts, Outcome, E2E_METRICS, ENGINE_WORKLOADS, LAYER_METRICS, SETUP_FLOOR_S, WORKLOADS,
};

const USAGE: &str = "usage: bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--aa]";

/// Measured window of one run when `--seconds` is not given (the value
/// `BENCHMARK.json` records as `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                    return Err(format!("unknown workload `{name}` ({})", names.join(", ")));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_string())?
            }
            "--seconds" => {
                parsed.seconds = match value()?.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err("--seconds expects a positive number".into()),
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--aa" => parsed.aa = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out/` of the checkout this binary was built in: span files,
/// stamped result sets and the sweep's checkpoints.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn unit_of(name: &str) -> &'static str {
    E2E_METRICS
        .iter()
        .map(|(n, u, _, _)| (n, u))
        .chain(LAYER_METRICS.iter().map(|(n, u, ..)| (n, u)))
        .find(|(n, _)| **n == name)
        .map_or("?", |(_, u)| u)
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {}",
                json::string(name),
                json::object(&[
                    ("value", json::number(*value)),
                    ("unit", json::string(unit_of(name))),
                ])
            )
        })
        .collect();
    json::object(&[
        ("correct", (outcome.failed == 0).to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", format!("{{{}}}", metrics.join(", "))),
    ])
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let out = out_dir()?;
    let engine = ENGINE_WORKLOADS.iter().find(|w| w.name == name);
    let outcome = match (engine, args.trace) {
        (Some(w), false) => workloads::run_engine(w, &opts)?,
        (Some(w), true) => layers::run_trace(name, layers::Traced::Engine(w), &opts, &out)?,
        (None, false) => serve::run_e2e(&opts, &out)?,
        (None, true) => {
            // Half the window for the traced sweep: the layer
            // measurements take the rest of a run's time.
            let seconds = if args.smoke { 0.0 } else { args.seconds / 2.0 };
            layers::run_trace(name, layers::Traced::Sweep(seconds), &opts, &out)?
        }
    };
    let expected: Vec<&str> = if args.trace {
        LAYER_METRICS.iter().map(|(n, ..)| *n).collect()
    } else {
        E2E_METRICS.iter().map(|(n, _, _, _)| *n).collect()
    };
    for name in &expected {
        let count = outcome.metrics.iter().filter(|(n, _)| n == name).count();
        if count != 1 {
            return Err(format!("metric `{name}` reported {count} times"));
        }
    }
    if outcome.metrics.len() != expected.len() {
        return Err("a metric outside the tables was reported".into());
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not finite ({value})"));
    }

    let stamp = host::stamp(name, outcome.threads, args.seed, outcome.peak_gflops);
    let line = result_line(&outcome);
    let kind = if args.trace { "layers" } else { "e2e" };
    let stamped = format!(
        "{{\"stamp\": {stamp}, \"samples\": {}, \"result\": {line}}}\n",
        outcome.samples
    );
    let path = out.join(format!("result_{name}_{kind}.json"));
    std::fs::write(&path, stamped).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("  stamp: {stamp}");
    for (metric, value) in &outcome.metrics {
        eprintln!(
            "  {name:<18} {metric:<30} {value:>16.6} {}",
            unit_of(metric)
        );
    }
    eprintln!(
        "  {name}: failed_share = {}/{}, {} samples behind the timings",
        outcome.failed, outcome.attempted, outcome.samples
    );
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// `workload → metric → value` of one result set.
type ResultSet = Vec<(String, Vec<(String, f64)>)>;

/// One result set: every workload, each in a fresh child process of this
/// binary (so peak RSS and the once-built pool are per workload).
/// Returns the set and whether every child was correct.
fn run_set(args: &Args) -> Result<(ResultSet, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut set = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        eprintln!(
            "== {name} (seed {}, trace {}) ==",
            args.seed,
            u8::from(args.trace)
        );
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(line) = stdout.lines().last() else {
            return Err(format!("{name}: no result line (exit {})", output.status));
        };
        let result = json::parse(line).map_err(|e| format!("{name}: bad result line: {e}"))?;
        let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
        all_correct &= correct && output.status.success();
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{name}: result line has no metrics"));
        };
        // In table order, not the parsed map's alphabetical one.
        let values = E2E_METRICS
            .iter()
            .map(|(n, ..)| n)
            .chain(LAYER_METRICS.iter().map(|(n, ..)| n))
            .filter_map(|n| Some((n.to_string(), metrics.get(*n)?.get("value")?.as_f64()?)))
            .collect();
        set.push((name.to_string(), values));
    }
    Ok((set, all_correct))
}

fn print_set(set: &ResultSet) {
    println!("{:<20} {:<30} {:>16} unit", "workload", "metric", "value");
    for (workload, metrics) in set {
        for (metric, value) in metrics {
            println!(
                "{workload:<20} {metric:<30} {value:>16.6} {}",
                unit_of(metric)
            );
        }
    }
}

/// By how much of `a` the value `b` is worse, given the direction.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--aa`: two sets of the same binary must agree within the bounds.
fn run_aa(args: &Args) -> Result<bool, String> {
    let (first, ok_a) = run_set(args)?;
    let (second, ok_b) = run_set(args)?;
    let mut within = true;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "rel diff", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (name, _, better, bound) in E2E_METRICS {
            let find = |set: &[(String, f64)]| set.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (Some(va), Some(vb)) = (find(a), find(b)) else {
                return Err(format!("{workload}: metric `{name}` missing from a set"));
            };
            // A/A: neither set is the parent, so either direction counts.
            let diff = worsening(*better, va, vb).abs();
            // `setup_s`: the share or the absolute floor, whichever is larger.
            let bound = if *name == "setup_s" {
                bound.max(SETUP_FLOOR_S / va)
            } else {
                *bound
            };
            let flag = if diff > bound { "EXCEEDS" } else { "" };
            within &= diff <= bound;
            println!(
                "{workload:<20} {name:<24} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}% {flag}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(within && ok_a && ok_b)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.smoke && !argv.iter().any(|a| a == "--seconds") {
        args.seconds = 0.5;
    }
    let outcome = match (&args.workload, args.aa) {
        (Some(name), _) => run_one(&name.clone(), &args),
        (None, true) => run_aa(&args),
        (None, false) => run_set(&args).map(|(set, correct)| {
            print_set(&set);
            println!(
                "failed_share = 0 on every workload: {}",
                if correct { "yes" } else { "NO" }
            );
            correct
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: FAILED (incorrect output, failed operation or bound exceeded)");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_sweep",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frob"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 7,
            failed: 1,
            samples: 6,
            metrics: vec![("setup_s", 0.8127), ("peak_rss_mb", 12.5)],
            threads: 2,
            peak_gflops: None,
        };
        let parsed = json::parse(&result_line(&outcome)).unwrap();
        let Value::Obj(map) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(parsed.get("attempted"), Some(&Value::Num(7.0)));
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Num(0.8127)));
        assert_eq!(setup.get("unit"), Some(&Value::Str("s".into())));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
    }

    /// Every per-layer metric's written-down prediction names a metric
    /// and workloads that exist.
    #[test]
    fn moves_name_known_metrics_and_workloads() {
        for (name, _, _, moves) in LAYER_METRICS.iter().filter(|m| m.3 != "-") {
            for clause in moves.split("; ") {
                let (metric, on) = clause
                    .split_once(" on ")
                    .unwrap_or_else(|| panic!("{name}: `{clause}` has no ` on `"));
                assert!(
                    E2E_METRICS.iter().any(|(n, ..)| *n == metric)
                        || LAYER_METRICS.iter().any(|(n, ..)| *n == metric),
                    "{name}: unknown metric `{metric}`"
                );
                for workload in on.split(' ') {
                    assert!(
                        WORKLOADS.iter().any(|(w, _)| *w == workload),
                        "{name}: unknown workload `{workload}`"
                    );
                }
            }
        }
    }

    /// `BENCHMARK.json` and the tables here must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("`{key}` is not an array")
            };
            items
                .iter()
                .map(|i| i.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            E2E_METRICS.iter().map(|(n, ..)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            LAYER_METRICS.iter().map(|(n, ..)| *n).collect::<Vec<_>>()
        );
        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, (name, unit, better, bound)) in e2e.iter().zip(E2E_METRICS) {
            assert_eq!(
                item.get("unit").and_then(Value::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                item.get("better").and_then(Value::as_str),
                Some(better.as_str()),
                "{name}"
            );
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(*bound),
                "{name}"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
