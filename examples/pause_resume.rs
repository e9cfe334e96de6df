//! Pause and resume an optimization run — the Spearmint feature the
//! paper's authors singled out ("it supports pausing and resuming the
//! optimization process, a feature that turned out to be important in our
//! evaluation setup": their cluster was student workstations).
//!
//! Every strategy pauses and resumes the same way: the runner journals
//! each trial to a segment, and a resumed run re-proposes its history
//! through `propose`/`observe`, serving the journaled measurements
//! instead of re-running them. This example runs one BO experiment in
//! memory, runs it again journaled, cuts the journal after one of the
//! first pass's trials (what a kill leaves behind), resumes it, and
//! checks that the resumed result is the uninterrupted one. It exits
//! non-zero if the two differ or the resume served no trial from the
//! journal.
//!
//! ```text
//! cargo run --release --example pause_resume
//! ```

use std::path::Path;
use std::process::ExitCode;

use mtm::prelude::*;
use mtm::topogen::{make_condition, Condition, SizeClass};
use mtm_runner::engine::canonical_result_json;
use mtm_runner::journal::Record;
use mtm_runner::{run_experiment_journaled, RunnerError, RunnerOptions};

const EXP_ID: &str = "example/pause-resume";

/// Cut `segment` just after the middle of pass 0's `Trial` records, so
/// the journal ends on a whole record the way a killed run's does.
/// Returns how many records survive the cut.
fn cut_after_a_pass0_trial(segment: &Path) -> std::io::Result<usize> {
    let text = std::fs::read_to_string(segment)?;
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let pass0_trials: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, line)| {
            matches!(
                serde_json::from_str::<Record>(line),
                Ok(Record::Trial(t)) if t.pass == 0
            )
        })
        .map(|(i, _)| i)
        .collect();
    let keep = pass0_trials
        .get(pass0_trials.len() / 2)
        .map(|&i| i + 1)
        .ok_or_else(|| std::io::Error::other("the journal holds no pass-0 trial"))?;
    std::fs::write(segment, lines[..keep].concat())?;
    Ok(keep)
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let topo = make_condition(
        SizeClass::Medium,
        &Condition {
            time_imbalance: 1.0,
            contention: 0.25,
        },
        7,
    );
    let objective = Objective::new(topo, ClusterSpec::paper_cluster());
    let make = |seed| Strategy::bo(objective.topology(), ParamSet::Hints, seed);
    let opts = RunOptions {
        max_steps: 20,
        confirm_reps: 5,
        passes: 2,
        seed: 99,
        ..Default::default()
    };
    let ropts = RunnerOptions::serial();
    let run = |segment: Option<&Path>, resume: bool| -> Result<_, RunnerError> {
        run_experiment_journaled(EXP_ID, &make, &objective, &opts, &ropts, segment, resume)
    };

    // The uninterrupted run, in memory.
    let uninterrupted = run(None, false)?.result;
    println!("uninterrupted: best {:.0} tuples/s", uninterrupted.mean());

    // The same run journaled to a segment, then "killed" mid-pass.
    let dir = std::env::temp_dir()
        .join("mtm-pause-resume")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    let segment = dir.join("session.jsonl");
    run(Some(&segment), false)?;
    let kept = cut_after_a_pass0_trial(&segment)?;
    println!("paused: journal cut to its first {kept} records");

    // ...the next morning: resume from the journal and finish.
    let resumed = run(Some(&segment), true)?;
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resumed: {} trials served from the journal, {} measured, best {:.0} tuples/s",
        resumed.stats.replayed,
        resumed.stats.measured,
        resumed.result.mean()
    );

    let same = canonical_result_json(&uninterrupted) == canonical_result_json(&resumed.result);
    println!("resumed result identical to the uninterrupted one: {same}");
    // A resume that served nothing from the journal would match
    // vacuously.
    Ok(if same && resumed.stats.replayed > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
