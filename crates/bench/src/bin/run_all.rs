//! Regenerate the paper's tables and figures: `run_all [NAME…]`.
//!
//! Each NAME is one of `table1 table2 table3 fig3 fig4 fig5 fig6 fig7
//! fig8`; with none, all of them run in that order. An unknown name
//! exits 2 before anything runs.
use std::process::ExitCode;

use mtm_bench::{figures, Scale};
use mtm_runner::results_dir;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<&str> = args.iter().map(String::as_str).collect();
    if names.is_empty() {
        names = figures::NAMES.to_vec();
    }
    if let Err(e) = figures::check_names(&names) {
        eprintln!("run_all: {e}\nusage: run_all [NAME…]");
        return ExitCode::from(2);
    }
    let scale = Scale::from_env();
    eprintln!("running {} at scale '{}'", names.join(" "), scale.label());
    let out_dir = results_dir();
    match figures::emit(&names, scale, &out_dir) {
        Ok(()) => {
            eprintln!("all outputs under {}", out_dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run_all: {e}");
            ExitCode::FAILURE
        }
    }
}
