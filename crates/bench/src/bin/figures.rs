//! `figures <name>|all|--list` — regenerates the paper's figures and
//! tables (see [`aderdg_bench::figures`]).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(aderdg_bench::figures::run(&args))
}
