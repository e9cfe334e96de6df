//! The `mtm-runner` command-line tool.
//!
//! ```text
//! cargo run -p mtm-runner --release -- run    [--scale paper|fast|smoke] [--threads N]
//!                                             [--fail-rate F]
//! cargo run -p mtm-runner --release -- resume [same flags]
//! cargo run -p mtm-runner --release -- status [--scale ...]
//! ```
//!
//! `run` executes the Figs. 4–7 grid from scratch (wiping this scale's
//! journal segments first); `resume` continues from whatever the journal
//! already holds — completed cells load instantly, partial cells replay
//! their journaled trials into the strategy and continue measuring.
//! `status` inspects the segments without executing anything.
//!
//! Exit code 0 on success, 1 on an execution/journal error, 2 on usage
//! errors.

use std::process::ExitCode;

use mtm_runner::engine::RunnerOptions;
use mtm_runner::fault::FaultPlan;
use mtm_runner::grid::{self, CellState};
use mtm_runner::progress::Progress;
use mtm_runner::{journal_root, Scale};
use mtm_stats::pool;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("");
    let rest: Vec<&str> = it.collect();

    let parsed = match Flags::parse(&rest) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("mtm-runner: {msg}");
            return usage();
        }
    };

    let outcome = match cmd {
        "run" => cmd_run(&parsed, false),
        "resume" => cmd_run(&parsed, true),
        "status" => cmd_status(&parsed),
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mtm-runner: {msg}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mtm-runner <run | resume | status> \
         [--scale paper|fast|smoke] [--threads N] [--fail-rate F]"
    );
    ExitCode::from(2)
}

struct Flags {
    scale: Scale,
    ropts: RunnerOptions,
}

impl Flags {
    fn parse(rest: &[&str]) -> Result<Flags, String> {
        let mut scale = Scale::from_env();
        let mut ropts = RunnerOptions {
            threads: pool::default_threads(),
            ..RunnerOptions::serial()
        };
        let mut it = rest.iter();
        while let Some(&flag) = it.next() {
            match flag {
                "--scale" => {
                    let value = it.next().ok_or("--scale needs a value")?;
                    scale = Scale::parse(value).ok_or_else(|| format!("bad scale '{value}'"))?;
                }
                "--threads" => {
                    let value = it.next().ok_or("--threads needs a value")?;
                    ropts.threads = value
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count '{value}': {e}"))?;
                }
                "--fail-rate" => {
                    let value = it.next().ok_or("--fail-rate needs a value")?;
                    let rate = value
                        .parse::<f64>()
                        .map_err(|e| format!("bad fail rate '{value}': {e}"))?;
                    // `with_rate` would clamp 5 to 1 (every trial exhausts)
                    // and keep NaN (no injection, yet `frate=NaN` in the
                    // fingerprint): refuse both here.
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!(
                            "bad fail rate '{value}': must be a number in [0, 1]"
                        ));
                    }
                    ropts.faults = FaultPlan::with_rate(rate);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Flags { scale, ropts })
    }
}

fn cmd_run(flags: &Flags, resume: bool) -> Result<(), String> {
    let root = journal_root();
    if !resume {
        grid::clear_segments(flags.scale, &root).map_err(|e| e.to_string())?;
    }
    eprintln!(
        "[runner] {} grid at scale '{}' on {} thread(s), journal under {}",
        if resume { "resuming" } else { "running" },
        flags.scale.label(),
        flags.ropts.threads.max(1),
        root.display()
    );
    let progress = Progress::stderr("runner");
    let t0 = std::time::Instant::now();
    let (grid, report) = grid::run_journaled(flags.scale, &flags.ropts, &root, resume, &progress)
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();

    println!("{:<40} {:>14} {:>10}", "cell", "mean tuples/s", "best step");
    for cell in &grid.cells {
        println!(
            "{:<40} {:>14.0} {:>10}",
            format!(
                "{}/{}/{}",
                cell.size.label(),
                grid::condition_slug(&cell.condition),
                cell.strategy
            ),
            cell.result.mean(),
            cell.result.winner().best_step,
        );
    }
    eprintln!(
        "[runner] done in {wall:.1}s — {} cells ({} resumed), {} trials ({} measured, {} replayed, {} injected failures)",
        report.cells,
        report.cells_resumed,
        report.stats.trials(),
        report.stats.measured,
        report.stats.replayed,
        report.stats.injected_failures,
    );
    Ok(())
}

fn cmd_status(flags: &Flags) -> Result<(), String> {
    let root = journal_root();
    let rows = grid::status(flags.scale, &flags.ropts, &root).map_err(|e| e.to_string())?;
    let mut complete = 0usize;
    let mut partial = 0usize;
    println!("{:<44} state", "cell");
    for row in &rows {
        let state = match &row.state {
            CellState::Missing => "missing".to_string(),
            CellState::Stale => "stale (will re-run)".to_string(),
            CellState::Partial(trials, passes) => {
                partial += 1;
                format!("partial: {trials} trials, {passes} pass(es) done")
            }
            CellState::Complete => {
                complete += 1;
                "complete".to_string()
            }
        };
        println!("{:<44} {state}", row.id);
    }
    println!(
        "\n{complete}/{} complete, {partial} partial — journal under {}",
        rows.len(),
        root.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_rate_must_be_a_number_in_the_unit_interval() {
        for bad in ["NaN", "inf", "-inf", "-0.1", "1.5", "5", "x"] {
            let err = Flags::parse(&["--fail-rate", bad])
                .err()
                .unwrap_or_else(|| panic!("--fail-rate {bad} accepted"));
            assert!(
                err.starts_with(&format!("bad fail rate '{bad}'")),
                "{bad}: {err}"
            );
        }
        for (good, rate) in [("0", 0.0), ("0.3", 0.3), ("1", 1.0)] {
            let flags = Flags::parse(&["--fail-rate", good]).expect(good);
            assert_eq!(
                flags.ropts.faults.fail_rate.to_bits(),
                f64::to_bits(rate),
                "{good}"
            );
        }
    }

    #[test]
    fn flags_parse_threads_scale_and_reject_unknowns() {
        let flags = Flags::parse(&["--threads", "3", "--scale", "smoke"]).expect("valid flags");
        assert_eq!(flags.ropts.threads, 3);
        assert_eq!(flags.scale.label(), "smoke");
        assert_eq!(flags.ropts.faults.fail_rate.to_bits(), 0f64.to_bits());
        for bad in [
            &["--threads"][..],
            &["--threads", "-1"],
            &["--scale", "huge"],
            &["--fail-rate"],
            &["--verbose"],
        ] {
            assert!(Flags::parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
