//! Host facts every result set is stamped with, and the process's peak
//! resident set.

use crate::json;
use std::process::Command;

/// First line of `path` matching `key`, value after the colon.
fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB. Each workload runs
/// in a process of its own, so this is per workload.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trimmed stdout of a helper command, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The stamp as a JSON object: CPU model, `nproc`, threads used, L2 size,
/// rustc version, git commit (`unknown` outside a git checkout), seed and
/// the same-run peak where one was measured.
pub fn stamp(workload: &str, threads: usize, seed: u64, peak_gflops: Option<f64>) -> String {
    let unknown = || "unknown".to_string();
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    json::object(&[
        ("workload", json::string(workload)),
        (
            "cpu_model",
            json::string(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("nproc", nproc().to_string()),
        ("threads", threads.to_string()),
        ("l2_per_core", json::string(&l2)),
        (
            "rustc",
            json::string(&command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            json::string(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", seed.to_string()),
        (
            "peak_gflops",
            peak_gflops.map_or("null".to_string(), json::number),
        ),
    ])
}
