//! Kill–resume determinism: interrupting a journaled run (simulated by
//! truncating its segment at an arbitrary byte offset) and resuming must
//! produce a final `ExperimentResult` bitwise-identical to an
//! uninterrupted run — the acceptance test of the runner subsystem.

use std::fs;
use std::path::{Path, PathBuf};

use mtm_core::objective::synthetic_base;
use mtm_core::{Objective, ParamSet, RunOptions, Strategy};
use mtm_runner::engine::{canonical_result_json, run_experiment_journaled};
use mtm_runner::grid;
use mtm_runner::journal::{load_segment, Header, Record, SCHEMA_VERSION};
use mtm_runner::progress::Progress;
use mtm_runner::{RunnerOptions, Scale};
use mtm_stormsim::ClusterSpec;
use mtm_topogen::{make_condition, Condition, SizeClass};

/// Fresh scratch directory under the system temp dir, wiped on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mtm-runner-resume-tests")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn objective() -> Objective {
    let topo = make_condition(
        SizeClass::Medium,
        &Condition {
            time_imbalance: 0.5,
            contention: 0.0,
        },
        11,
    );
    let base = synthetic_base(&topo);
    Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base)
}

fn opts() -> RunOptions {
    RunOptions {
        max_steps: 8,
        confirm_reps: 3,
        passes: 2,
        seed: 0x51,
        ..Default::default()
    }
}

fn bo_factory() -> impl Fn(u64) -> Strategy + Sync {
    let topo = objective().topology().clone();
    move |seed| Strategy::bo(&topo, ParamSet::Hints, seed)
}

/// Complete a journaled run at `segment`, then truncate the segment to
/// `frac` of its bytes — the moral equivalent of `kill -9` at that point
/// in the run (possibly mid-line; the loader tolerates torn tails).
fn run_then_truncate(segment: &Path, frac: f64) -> String {
    run_then_truncate_with(segment, frac, &bo_factory())
}

/// [`run_then_truncate`] with a caller-chosen strategy factory.
fn run_then_truncate_with(
    segment: &Path,
    frac: f64,
    make: &(impl Fn(u64) -> Strategy + Sync),
) -> String {
    let obj = objective();
    let full = run_experiment_journaled(
        "resume/kill",
        make,
        &obj,
        &opts(),
        &RunnerOptions::serial(),
        Some(segment),
        false,
    )
    .unwrap();
    let bytes = fs::read(segment).unwrap();
    let cut = ((bytes.len() as f64) * frac) as usize;
    fs::write(segment, &bytes[..cut]).unwrap();
    canonical_result_json(&full.result)
}

#[test]
fn truncated_journal_resumes_to_bitwise_identical_result() {
    let dir = scratch("experiment");
    let obj = objective();
    let make = bo_factory();

    // Cut points covering a torn header tail, mid-pass-1, mid-pass-2 and
    // mid-confirmation interruptions.
    for (i, frac) in [0.02, 0.35, 0.6, 0.93].iter().enumerate() {
        let segment = dir.join(format!("kill-{i}.jsonl"));
        let reference = run_then_truncate(&segment, *frac);
        let resumed = run_experiment_journaled(
            "resume/kill",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            Some(&segment),
            true,
        )
        .unwrap();
        assert_eq!(
            reference,
            canonical_result_json(&resumed.result),
            "resume after truncation to {frac} of the journal must match"
        );
        // A cut past the header leaves journaled work to replay.
        if *frac > 0.1 {
            assert!(resumed.resumed, "cut at {frac}: segment should be trusted");
            assert!(
                resumed.stats.replayed > 0,
                "cut at {frac}: expected replayed trials, stats: {:?}",
                resumed.stats
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Kill→resume determinism for one zoo strategy: truncate at `fracs`
/// (chosen per strategy to land in its interesting phases) and require
/// bitwise-identical resumed results.
fn zoo_strategy_resumes_bitwise(name: &str, make: impl Fn(u64) -> Strategy + Sync, fracs: &[f64]) {
    let dir = scratch(name);
    let obj = objective();
    for (i, frac) in fracs.iter().enumerate() {
        let segment = dir.join(format!("kill-{i}.jsonl"));
        let reference = run_then_truncate_with(&segment, *frac, &make);
        let resumed = run_experiment_journaled(
            "resume/kill",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            Some(&segment),
            true,
        )
        .unwrap();
        assert_eq!(
            reference,
            canonical_result_json(&resumed.result),
            "{name}: resume after truncation to {frac} must match"
        );
        if *frac > 0.1 {
            assert!(
                resumed.stats.replayed > 0,
                "{name} cut at {frac}: expected replayed trials, stats: {:?}",
                resumed.stats
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tpe_resumes_bitwise_identical_including_mid_startup() {
    let topo = objective().topology().clone();
    // With max_steps 8 and the default 6-trial startup phase, the 0.2 cut
    // lands inside the random-startup trials and 0.75 inside the
    // density-ratio phase.
    zoo_strategy_resumes_bitwise(
        "tpe",
        move |seed| Strategy::tpe(&topo, ParamSet::Hints, seed),
        &[0.2, 0.45, 0.75],
    );
}

#[test]
fn hyperband_resumes_bitwise_identical_including_mid_rung() {
    let topo = objective().topology().clone();
    // Max_steps 8 spans bracket s=1 (3-member rung 0, then the 3-rep
    // promotion rung) and into bracket s=0, so the cuts land mid-rung
    // and mid-promotion.
    zoo_strategy_resumes_bitwise(
        "hyperband",
        move |seed| Strategy::hyperband(&topo, ParamSet::Hints, seed),
        &[0.3, 0.6, 0.9],
    );
}

#[test]
fn random_resumes_bitwise_identical() {
    let topo = objective().topology().clone();
    zoo_strategy_resumes_bitwise(
        "random",
        move |seed| Strategy::random(&topo, ParamSet::Hints, seed),
        &[0.5],
    );
}

#[test]
fn resume_of_a_finished_segment_is_pure_replay() {
    let dir = scratch("finished");
    let segment = dir.join("done.jsonl");
    let obj = objective();
    let make = bo_factory();
    let ropts = RunnerOptions::serial();
    let full = run_experiment_journaled(
        "resume/done",
        &make,
        &obj,
        &opts(),
        &ropts,
        Some(&segment),
        false,
    )
    .unwrap();
    let again = run_experiment_journaled(
        "resume/done",
        &make,
        &obj,
        &opts(),
        &ropts,
        Some(&segment),
        true,
    )
    .unwrap();
    assert!(again.resumed);
    assert_eq!(again.stats.measured, 0, "nothing should be re-simulated");
    assert_eq!(
        canonical_result_json(&full.result),
        canonical_result_json(&again.result)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_segment_is_discarded_not_served() {
    let dir = scratch("stale");
    let segment = dir.join("stale.jsonl");
    let obj = objective();
    let make = bo_factory();
    let ropts = RunnerOptions::serial();
    run_experiment_journaled(
        "resume/stale",
        &make,
        &obj,
        &opts(),
        &ropts,
        Some(&segment),
        false,
    )
    .unwrap();

    // Same id, different seed: the old cache's staleness bug would have
    // served the seed-0x51 numbers here. The journal must re-run instead.
    let changed = RunOptions {
        seed: 0x52,
        ..opts()
    };
    let reference =
        run_experiment_journaled("resume/stale", &make, &obj, &changed, &ropts, None, false)
            .unwrap();
    let resumed = run_experiment_journaled(
        "resume/stale",
        &make,
        &obj,
        &changed,
        &ropts,
        Some(&segment),
        true,
    )
    .unwrap();
    assert!(!resumed.resumed, "stale segment must not be trusted");
    assert_eq!(resumed.stats.replayed, 0);
    assert_eq!(
        canonical_result_json(&reference.result),
        canonical_result_json(&resumed.result),
        "re-run under the new seed, not the journaled old one"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `segment` under an older schema `version`'s header; version 1's trial
/// rows also carry the `cached` flag version 2 dropped. The header keeps
/// its fingerprint, so only the version can mark the segment stale.
fn as_version(segment: &str, version: u32) -> String {
    let (first, rest) = segment.split_once('\n').expect("a header line");
    let Ok(Record::Header(header)) = serde_json::from_str(first) else {
        panic!("segment does not start with a header: {segment}");
    };
    let mut out = serde_json::to_string(&Record::Header(Header { version, ..header })).unwrap();
    for line in rest.lines() {
        out.push('\n');
        if version == 1 {
            out.push_str(&line.replace(",\"attempts\":", ",\"cached\":false,\"attempts\":"));
        } else {
            out.push_str(line);
        }
    }
    out + "\n"
}

#[test]
fn version_1_segment_is_stale_and_re_run() {
    // Versions 1 and 2: version 2 keyed trials by FNV-1a over the
    // configuration's JSON, so its rows would not match one key of the
    // current schema even where the rows parse.
    let coord = grid::cells()[0];
    let id = grid::cell_id(Scale::Smoke, &coord);
    let obj = grid::cell_objective(coord.size, &coord.condition, grid::GRID_SEED);
    let make = grid::cell_strategy(coord.strategy, &obj);
    let opts = Scale::Smoke.run_options_for(coord.strategy, grid::GRID_SEED);
    let ropts = RunnerOptions::serial();
    for version in [1, 2] {
        let dir = scratch(&format!("schema-v{version}"));
        let segment = grid::segment_path(&dir, Scale::Smoke, &coord);
        let state = || {
            let rows = grid::status(Scale::Smoke, &ropts, &dir).unwrap();
            rows.into_iter().find(|r| r.id == id).map(|r| r.state)
        };
        let fresh =
            run_experiment_journaled(&id, &make, &obj, &opts, &ropts, Some(&segment), false)
                .unwrap();
        assert!(fresh.stats.measured > 0, "{:?}", fresh.stats);
        // The first 60% of the lines: a trusted segment would replay them.
        let full = fs::read_to_string(&segment).unwrap();
        let keep = full.lines().count() * 6 / 10;
        let cut: String = full.lines().take(keep).map(|l| format!("{l}\n")).collect();
        let old = as_version(&cut, version);
        assert!(old.contains("{\"Trial\""), "{old}");
        assert_eq!(old.contains(",\"cached\":false,"), version == 1, "{old}");
        fs::write(&segment, &old).unwrap();
        assert_eq!(state(), Some(grid::CellState::Stale), "version {version}");

        let resumed =
            run_experiment_journaled(&id, &make, &obj, &opts, &ropts, Some(&segment), true)
                .unwrap();
        assert!(
            !resumed.resumed,
            "a version-{version} segment must not be trusted"
        );
        assert_eq!(resumed.stats.replayed, 0, "{:?}", resumed.stats);
        assert_eq!(resumed.stats.measured, fresh.stats.measured);
        assert_eq!(
            canonical_result_json(&fresh.result),
            canonical_result_json(&resumed.result),
            "the re-run matches a fresh run"
        );
        // The re-run rewrote the segment under the current schema.
        let data = load_segment(&segment).unwrap().unwrap();
        assert_eq!(data.header.map(|h| h.version), Some(SCHEMA_VERSION));
        assert_eq!(state(), Some(grid::CellState::Complete));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn interrupted_smoke_grid_resumes_bitwise_identical_to_serial() {
    let dir = scratch("grid");
    let ropts = RunnerOptions::serial();

    // Reference: uninterrupted in-memory serial run.
    let reference = grid::run(Scale::Smoke, &ropts);

    // Journaled run to completion, then simulate a crash that caught the
    // grid mid-flight: one segment truncated mid-pass, one deleted
    // entirely, the rest left complete.
    let (_, _) =
        grid::run_journaled(Scale::Smoke, &ropts, &dir, false, &Progress::quiet()).unwrap();
    let coords = grid::cells();
    let victim_partial = grid::segment_path(&dir, Scale::Smoke, &coords[7]);
    let bytes = fs::read(&victim_partial).unwrap();
    fs::write(&victim_partial, &bytes[..bytes.len() / 2]).unwrap();
    let victim_gone = grid::segment_path(&dir, Scale::Smoke, &coords[23]);
    fs::remove_file(&victim_gone).unwrap();

    let (resumed, report) =
        grid::run_journaled(Scale::Smoke, &ropts, &dir, true, &Progress::quiet()).unwrap();
    assert_eq!(report.cells, 96);
    assert!(
        report.cells_resumed >= 94,
        "complete + truncated cells resume, report: {report:?}"
    );
    assert!(report.stats.measured > 0, "deleted cell re-runs");

    assert_eq!(reference.cells.len(), resumed.cells.len());
    for (a, b) in reference.cells.iter().zip(resumed.cells.iter()) {
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(
            canonical_result_json(&a.result),
            canonical_result_json(&b.result),
            "cell {}/{}/{} diverged after resume",
            a.size.label(),
            grid::condition_slug(&a.condition),
            a.strategy
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
