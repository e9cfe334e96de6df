//! Fig. 6 — LOESS regression smoothing (span 0.75) of the Bayesian
//! optimizer's trajectories when setting parallelism hints.

use mtm_core::report::Table;
use mtm_stats::Loess;
use mtm_topogen::{condition_name, Condition, SizeClass};

use mtm_runner::grid::Grid;

/// Build one table per condition: columns step/small/medium/large of the
/// smoothed bo180 trajectory (the winning pass).
pub fn run(grid: &Grid) -> Vec<Table> {
    let loess = Loess::new(0.75);
    let mut tables = Vec::new();
    for condition in Condition::grid() {
        let mut series: Vec<(SizeClass, Vec<f64>)> = Vec::new();
        for size in SizeClass::all() {
            if let Some(cell) = grid.cell(size, &condition, "bo180") {
                let traj: Vec<f64> = cell
                    .result
                    .winner()
                    .steps
                    .iter()
                    .map(|s| s.throughput)
                    .collect();
                if traj.len() >= 2 {
                    let x: Vec<f64> = (0..traj.len()).map(|i| i as f64).collect();
                    series.push((size, loess.fit(&x, &traj)));
                }
            }
        }
        let mut table = Table::new(
            &format!(
                "Fig. 6 ({}): LOESS(0.75) of bo trajectories",
                condition_name(&condition)
            ),
            &["small", "medium", "large"],
        );
        let len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        for step in 0..len {
            let vals: Vec<f64> = SizeClass::all()
                .iter()
                .map(|size| {
                    series
                        .iter()
                        .find(|(s, _)| s == size)
                        .and_then(|(_, v)| v.get(step).copied())
                        .unwrap_or(f64::NAN)
                })
                .collect();
            table.push(&format!("step {step}"), vals);
        }
        tables.push(table);
    }
    tables
}

/// The paper's Fig. 6 observation: trend lines rise early for small and
/// medium topologies; they must be non-trivial (not all zero).
pub fn shape_report(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        let first = t.rows.first().map(|r| r.values[0]).unwrap_or(0.0);
        let last_quarter: Vec<f64> = t
            .rows
            .iter()
            .skip(t.rows.len() * 3 / 4)
            .map(|r| r.values[0])
            .filter(|v| v.is_finite())
            .collect();
        let late = last_quarter.iter().sum::<f64>() / last_quarter.len().max(1) as f64;
        out.push_str(&format!(
            "{}: small trajectory {first:.0} -> late avg {late:.0} ({})\n",
            t.title,
            if late >= first {
                "improving"
            } else {
                "flat/declining"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Scale;
    use mtm_runner::{grid, RunnerOptions};
    use mtm_stats::pool;

    #[test]
    fn fig6_smoothes_trajectories() {
        let g = grid::run(
            Scale::Smoke,
            &RunnerOptions::parallel(pool::default_threads()),
        );
        let tables = super::run(&g);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows.is_empty());
            // Smoothed values are finite for at least one size.
            assert!(t
                .rows
                .iter()
                .any(|r| r.values.iter().any(|v| v.is_finite())));
        }
        let report = super::shape_report(&tables);
        assert!(report.contains("trajectory"));
    }
}
