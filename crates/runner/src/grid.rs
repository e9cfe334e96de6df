//! The Figs. 4–7 experiment grid, executed by the runner.
//!
//! Every `(condition, size, strategy)` cell of §V-A is one independent
//! work unit: it gets its own journal segment under
//! `<journal root>/grid_<scale>/`, its own deterministic seeds, and can
//! run on any pool thread. This replaces the old monolithic
//! `grid_<scale>.json` cache — per-cell segments resume partially, and
//! their headers carry seed + schema + budget fingerprints so a changed
//! protocol re-runs instead of silently serving stale numbers.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mtm_core::objective::synthetic_base;
use mtm_core::{ExperimentResult, Objective, ParamSet, Strategy};
use mtm_stormsim::ClusterSpec;
use mtm_topogen::{make_condition, Condition, SizeClass};

use crate::engine::{run_experiment_journaled, RunnerOptions, TrialStats};
use crate::error::RunnerError;
use crate::journal::load_segment;
use crate::progress::Progress;
use crate::scale::Scale;

/// Strategy labels of the grid: the paper's four (plus the 180-step BO
/// budget ablation) in figure order, then the strategy zoo — the
/// random-search floor, TPE, and Hyperband — appended so existing cell
/// enumeration prefixes stay stable.
pub const STRATEGIES: [&str; 8] = [
    "pla",
    "bo",
    "ipla",
    "ibo",
    "bo180",
    "random",
    "tpe",
    "hyperband",
];

/// Base seed of the grid (also seeds topology generation per cell).
pub const GRID_SEED: u64 = 0x2015;

/// One grid cell: a full experiment outcome plus its coordinates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Topology size class.
    pub size: SizeClass,
    /// Workload condition.
    pub condition: Condition,
    /// Strategy label (see [`STRATEGIES`]).
    pub strategy: String,
    /// The experiment outcome.
    pub result: ExperimentResult,
}

/// The whole grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grid {
    /// Budget scale the grid was run at.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// All cells.
    pub cells: Vec<Cell>,
}

impl Grid {
    /// Look up a cell.
    pub fn cell(&self, size: SizeClass, condition: &Condition, strategy: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.size == size && c.condition == *condition && c.strategy == strategy)
    }
}

/// Coordinates of one cell, in the grid's canonical enumeration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCoord {
    /// Topology size class.
    pub size: SizeClass,
    /// Workload condition.
    pub condition: Condition,
    /// Strategy label.
    pub strategy: &'static str,
}

/// Every cell, in the order the figures enumerate them (conditions ×
/// sizes × strategies). Serial and parallel execution both report cells
/// in exactly this order.
pub fn cells() -> Vec<CellCoord> {
    let mut out = Vec::new();
    for condition in Condition::grid() {
        for size in SizeClass::all() {
            for strategy in STRATEGIES {
                out.push(CellCoord {
                    size,
                    condition,
                    strategy,
                });
            }
        }
    }
    out
}

/// Human-readable experiment id of a cell (journal headers, status
/// output).
pub fn cell_id(scale: Scale, coord: &CellCoord) -> String {
    format!(
        "grid-{}/{}/{}/{}",
        scale.label(),
        coord.size.label(),
        condition_slug(&coord.condition),
        coord.strategy
    )
}

/// Filesystem-safe condition label: `ti<pct>_cont<pct>`.
pub fn condition_slug(c: &Condition) -> String {
    format!(
        "ti{}_cont{}",
        (c.time_imbalance * 100.0) as u32,
        (c.contention * 100.0) as u32
    )
}

/// Journal segment path of a cell under `root`.
pub fn segment_path(root: &Path, scale: Scale, coord: &CellCoord) -> PathBuf {
    root.join(format!("grid_{}", scale.label())).join(format!(
        "{}_{}_{}.jsonl",
        coord.size.label(),
        condition_slug(&coord.condition),
        coord.strategy
    ))
}

/// The objective of a grid cell: the `size`/`condition` topology
/// generated from `seed`, on the paper's cluster, from the synthetic
/// base configuration. Served sessions build theirs the same way.
pub fn cell_objective(size: SizeClass, condition: &Condition, seed: u64) -> Objective {
    let topo = make_condition(size, condition, seed);
    let base = synthetic_base(&topo);
    Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base)
}

/// The per-pass factory of a cell's strategy: [`Strategy::by_name`] over
/// the hint surface, fresh for each pass seed. Callers pass a known
/// label (grid labels come from [`STRATEGIES`], served ones are
/// validated at admission); an unknown one falls back to `pla` only so
/// the factory stays total.
pub fn cell_strategy(label: &str, objective: &Objective) -> impl Fn(u64) -> Strategy + Sync {
    let label = label.to_string();
    let topo = objective.topology().clone();
    move |seed| {
        Strategy::by_name(&label, &topo, ParamSet::Hints, seed).unwrap_or_else(|_| Strategy::pla())
    }
}

/// Run one cell (journaled when `segment` is given).
fn run_cell(
    coord: &CellCoord,
    scale: Scale,
    ropts: &RunnerOptions,
    segment: Option<&Path>,
    resume: bool,
) -> Result<(Cell, TrialStats), RunnerError> {
    let objective = cell_objective(coord.size, &coord.condition, GRID_SEED);
    let make_strategy = cell_strategy(coord.strategy, &objective);
    let outcome = run_experiment_journaled(
        &cell_id(scale, coord),
        &make_strategy,
        &objective,
        &scale.run_options_for(coord.strategy, GRID_SEED),
        ropts,
        segment,
        resume,
    )?;
    Ok((
        Cell {
            size: coord.size,
            condition: coord.condition,
            strategy: coord.strategy.to_string(),
            result: outcome.result,
        },
        outcome.stats,
    ))
}

/// Aggregate statistics of one grid execution.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct GridReport {
    /// Trial statistics summed over all cells.
    pub stats: TrialStats,
    /// Cells loaded fully or partially from journal segments.
    pub cells_resumed: usize,
    /// Total cells executed.
    pub cells: usize,
}

/// Run the full grid **in memory** (no journal, serial-equivalent
/// semantics). Infallible: the in-memory engine has no I/O to fail on.
pub fn run(scale: Scale, ropts: &RunnerOptions) -> Grid {
    match run_inner(scale, ropts, None, false, &Progress::quiet()) {
        Ok((grid, _)) => grid,
        // Unreachable without a journal; satisfy totality with an empty
        // grid rather than a panic site.
        Err(_) => Grid {
            scale,
            seed: GRID_SEED,
            cells: Vec::new(),
        },
    }
}

/// Run (or resume) the journaled grid under `journal_root`.
/// `resume: false` wipes existing segments for this scale first.
pub fn run_journaled(
    scale: Scale,
    ropts: &RunnerOptions,
    journal_root: &Path,
    resume: bool,
    progress: &Progress,
) -> Result<(Grid, GridReport), RunnerError> {
    run_inner(scale, ropts, Some(journal_root), resume, progress)
}

fn run_inner(
    scale: Scale,
    ropts: &RunnerOptions,
    journal_root: Option<&Path>,
    resume: bool,
    progress: &Progress,
) -> Result<(Grid, GridReport), RunnerError> {
    let coords = cells();
    progress.reset(coords.len());
    // Cells are the outermost (and widest) unit of independence: fan them
    // across the pool and run each cell's passes/confirms serially inside
    // it — one saturation layer, no nested thread explosion.
    let cell_ropts = RunnerOptions {
        threads: 1,
        ..ropts.clone()
    };
    let outcomes = mtm_stats::pool::run_indexed(coords.len(), ropts.threads, |i| {
        let coord = &coords[i];
        let segment = journal_root.map(|root| segment_path(root, scale, coord));
        let out = run_cell(coord, scale, &cell_ropts, segment.as_deref(), resume);
        if let Ok((cell, stats)) = &out {
            progress.tick(&format!(
                "{} mean {:.0} tuples/s ({} trials, {} replayed)",
                cell_id(scale, coord),
                cell.result.mean(),
                stats.trials(),
                stats.replayed,
            ));
        }
        out
    });

    let mut cells_out = Vec::with_capacity(coords.len());
    let mut report = GridReport {
        cells: coords.len(),
        ..GridReport::default()
    };
    for outcome in outcomes {
        let (cell, stats) = outcome?;
        if stats.replayed > 0 {
            report.cells_resumed += 1;
        }
        report.stats.merge(&stats);
        cells_out.push(cell);
    }
    Ok((
        Grid {
            scale,
            seed: GRID_SEED,
            cells: cells_out,
        },
        report,
    ))
}

/// Completion state of one cell's journal segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellState {
    /// No segment on disk.
    Missing,
    /// Segment exists but its header does not match the current protocol
    /// (stale seed/budget/schema) or is unreadable.
    Stale,
    /// Partially executed: `(journaled trial records, completed passes)`.
    Partial(usize, usize),
    /// Experiment finished.
    Complete,
}

/// Status row for one cell.
#[derive(Debug, Clone)]
pub struct CellStatus {
    /// Experiment id.
    pub id: String,
    /// Segment state.
    pub state: CellState,
}

/// Inspect the journal segments of `scale` under `journal_root` without
/// executing anything.
pub fn status(
    scale: Scale,
    ropts: &RunnerOptions,
    journal_root: &Path,
) -> Result<Vec<CellStatus>, RunnerError> {
    let mut rows = Vec::new();
    for coord in cells() {
        let id = cell_id(scale, &coord);
        let path = segment_path(journal_root, scale, &coord);
        let opts = scale.run_options_for(coord.strategy, GRID_SEED);
        let fp = crate::engine::fingerprint(&id, &opts, ropts);
        let state = match load_segment(&path)? {
            None => CellState::Missing,
            Some(data) => {
                let trusted = data.header.as_ref().is_some_and(|h| {
                    h.version == crate::journal::SCHEMA_VERSION
                        && h.exp_id == id
                        && h.seed == opts.seed
                        && h.fingerprint == fp
                });
                if !trusted {
                    CellState::Stale
                } else if data.done.is_some() {
                    CellState::Complete
                } else {
                    CellState::Partial(data.n_records(), data.passes.len())
                }
            }
        };
        rows.push(CellStatus { id, state });
    }
    Ok(rows)
}

/// Remove every journal segment of `scale` under `journal_root`.
pub fn clear_segments(scale: Scale, journal_root: &Path) -> Result<(), RunnerError> {
    let dir = journal_root.join(format!("grid_{}", scale.label()));
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(RunnerError::Io(format!("remove {}: {e}", dir.display()))),
    }
}

/// Run the grid, loading every already-completed cell from its journal
/// segment and executing (or resuming) the rest — the replacement for the
/// old `run_or_load` JSON cache. Falls back to a plain in-memory run if
/// the journal directory is unusable.
pub fn run_or_load(scale: Scale, ropts: &RunnerOptions, journal_root: &Path) -> Grid {
    let progress = Progress::stderr("grid");
    match run_journaled(scale, ropts, journal_root, true, &progress) {
        Ok((grid, report)) => {
            eprintln!(
                "[grid] {} cells ({} resumed from journal, {} trials: {} measured / {} replayed)",
                report.cells,
                report.cells_resumed,
                report.stats.trials(),
                report.stats.measured,
                report.stats.replayed,
            );
            grid
        }
        Err(e) => {
            eprintln!("[grid] journal unusable ({e}) — running in memory");
            run(scale, ropts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_all_cells() {
        let grid = run(Scale::Smoke, &RunnerOptions::serial());
        assert_eq!(grid.cells.len(), 4 * 3 * STRATEGIES.len());
        for cell in &grid.cells {
            assert_eq!(
                cell.result.confirmation.len(),
                Scale::Smoke.confirms(),
                "every cell confirms"
            );
        }
        let c = grid
            .cell(
                SizeClass::Small,
                &Condition {
                    time_imbalance: 0.0,
                    contention: 0.0,
                },
                "pla",
            )
            .unwrap();
        assert_eq!(c.strategy, "pla");
    }

    #[test]
    fn every_grid_label_resolves_and_round_trips() {
        let objective = cell_objective(SizeClass::Small, &Condition::grid()[0], GRID_SEED);
        let topo = objective.topology();
        for label in STRATEGIES {
            let s = Strategy::by_name(label, topo, ParamSet::Hints, 1)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let expected = if label == "bo180" { "bo" } else { label };
            assert_eq!(s.name(), expected);
            assert_eq!(cell_strategy(label, &objective)(1).name(), expected);
        }
        assert!(Strategy::by_name("warp", topo, ParamSet::Hints, 1).is_err());
    }

    #[test]
    fn cell_enumeration_is_stable_and_named() {
        let coords = cells();
        assert_eq!(coords.len(), 96);
        assert_eq!(
            cell_id(Scale::Smoke, &coords[0]),
            "grid-smoke/small/ti0_cont0/pla"
        );
        let path = segment_path(Path::new("/j"), Scale::Fast, &coords[1]);
        assert_eq!(path, Path::new("/j/grid_fast/small_ti0_cont0_bo.jsonl"));
    }
}
