//! Shared plumbing of the `bench_*` perf-record binaries.
//!
//! Each binary times one layer, builds its record type from this module
//! and then does three things the same way: write the record to
//! `BENCH_<name>.json` at the repo root ([`write_record`]), check the
//! record's gate, and map the outcome to an exit code ([`run_main`]). A
//! record's gate is a pure function over the record (`gate(&self)`), next
//! to the thresholds it enforces, so CI relies on the binary's exit code
//! alone and the pass/fail decisions are unit-tested without timing
//! anything.

pub mod gp;
pub mod obs;
pub mod serve;
pub mod sim;
pub mod strategies;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Serialize;

use mtm_bayesopt::{space::Param, BayesOpt, BoConfig, ParamSpace};
use mtm_gp::FitOptions;

/// Integer parameters of the [`primed_optimizer`] workload: the paper's
/// "10 hints" cell of Fig. 7.
pub const PRIMED_DIM: usize = 10;

/// Serialize `record`, write it to `BENCH_<name>.json` at the repo root
/// and print it to stdout.
pub fn write_record<T: Serialize>(name: &str, record: &T) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(record).map_err(|e| format!("serialize record: {e}"))?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{json}");
    eprintln!("[bench_{name}] wrote {}", path.display());
    Ok(())
}

/// The `main` of every `bench_<name>` binary: run it, report an error on
/// stderr and exit 1 on failure.
pub fn run_main(name: &str, run: impl FnOnce() -> Result<(), String>) -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh optimizer over [`PRIMED_DIM`] integer parameters, driven to
/// `history` observations of a deterministic objective.
pub fn primed_optimizer(history: usize) -> Result<BayesOpt, String> {
    let params: Vec<Param> = (0..PRIMED_DIM)
        .map(|i| Param::int(format!("h{i}"), 1, 60))
        .collect();
    let config = BoConfig::builder()
        .seed(2)
        .fit(FitOptions::fast())
        .n_init(6)
        .n_candidates(256)
        .refit_every(4)
        .build()
        .map_err(|e| format!("bench config: {e}"))?;
    let mut bo = BayesOpt::new(ParamSpace::new(params), config);
    for _ in 0..history {
        let c = bo.propose().map_err(|e| format!("prime propose: {e}"))?;
        let y = c
            .values
            .iter()
            .map(|v| v.as_int() as f64)
            .sum::<f64>()
            .sin();
        bo.observe(c, y)
            .map_err(|e| format!("prime observe: {e}"))?;
    }
    Ok(bo)
}
