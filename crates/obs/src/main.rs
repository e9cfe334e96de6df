//! `mtm-obs` — inspect trace files written by [`mtm_obs::JsonlRecorder`].
//!
//! ```text
//! mtm-obs summarize <trace.jsonl>        per-operator tables, propose stats
//! mtm-obs diff <a.jsonl> <b.jsonl>       first diverging record (exit 1 if any)
//! mtm-obs top <trace.jsonl> [--n N]      busiest operators by tuples processed
//! ```
//!
//! Exit codes: 0 success (diff: identical), 1 difference found,
//! 2 usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

use mtm_obs::{diff_traces, load_trace, summarize, TraceData};

const USAGE: &str = "usage:
  mtm-obs summarize <trace.jsonl>
  mtm-obs diff <a.jsonl> <b.jsonl>
  mtm-obs top <trace.jsonl> [--n N]";

fn load(path: &str) -> Result<TraceData, String> {
    match load_trace(Path::new(path)) {
        Ok(Some(t)) => Ok(t),
        Ok(None) => Err(format!("mtm-obs: no such trace: {path}")),
        Err(e) => Err(format!("mtm-obs: {e}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, path] if cmd == "summarize" => {
            let trace = load(path)?;
            print!("{}", summarize(&trace));
            if trace.header.is_none() {
                println!("warning: trace has no header line");
            }
            Ok(ExitCode::SUCCESS)
        }
        [cmd, a, b] if cmd == "diff" => {
            let ta = load(a)?;
            let tb = load(b)?;
            let d = diff_traces(&ta, &tb);
            println!("{d}");
            Ok(if d.identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        [cmd, path, rest @ ..] if cmd == "top" => {
            let n = match rest {
                [] => 5,
                [flag, n] if flag == "--n" => n
                    .parse::<usize>()
                    .map_err(|_| format!("mtm-obs: bad --n value: {n}"))?,
                _ => return Err(USAGE.to_string()),
            };
            let trace = load(path)?;
            let summary = summarize(&trace);
            println!("operator            tasks   processed  queue_hwm");
            for op in summary.top_operators(n) {
                println!(
                    "{:<18} {:>6} {:>11} {:>10}",
                    op.label, op.tasks, op.processed, op.queue_hwm
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
