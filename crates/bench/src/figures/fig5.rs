//! Fig. 5 — convergence speed: the step at which the best configuration
//! was first measured (min/avg/max over the two passes).

use mtm_core::report::Table;
use mtm_topogen::{condition_name, Condition, SizeClass};

use mtm_runner::grid::Grid;

/// Strategies Fig. 5 plots (bo180 is excluded, as in the paper).
pub const FIG5_STRATEGIES: [&str; 4] = ["pla", "bo", "ipla", "ibo"];

/// Build the Fig. 5 table.
pub fn run(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Fig. 5: steps to first best measurement (min/avg/max over passes)",
        &["min", "avg", "max"],
    );
    for condition in Condition::grid() {
        for size in SizeClass::all() {
            for &strategy in FIG5_STRATEGIES.iter() {
                if let Some(cell) = grid.cell(size, &condition, strategy) {
                    let (min, avg, max) = cell.result.convergence_steps();
                    table.push(
                        &format!(
                            "{} | {} | {strategy}",
                            condition_name(&condition),
                            size.label()
                        ),
                        vec![min as f64, avg, max as f64],
                    );
                }
            }
        }
    }
    table
}

/// The paper's Fig. 5 headline: BO needs more steps than the linear
/// strategies; informed variants converge at least as fast as uninformed.
pub fn shape_report(grid: &Grid) -> String {
    let avg_steps = |strategy: &str| -> f64 {
        let mut sum = 0.0;
        let mut n = 0.0_f64;
        for condition in Condition::grid() {
            for size in SizeClass::all() {
                if let Some(cell) = grid.cell(size, &condition, strategy) {
                    sum += cell.result.convergence_steps().1;
                    n += 1.0;
                }
            }
        }
        sum / n.max(1.0)
    };
    let pla = avg_steps("pla");
    let bo = avg_steps("bo");
    let ibo = avg_steps("ibo");
    format!(
        "avg steps-to-best: pla {pla:.1}, bo {bo:.1}, ibo {ibo:.1} -> bo needs more \
         steps than linear: {}; informed bo converges faster than bo: {}\n",
        if bo > pla { "OK" } else { "DEVIATES" },
        if ibo <= bo { "OK" } else { "DEVIATES" },
    )
}

#[cfg(test)]
mod tests {
    use crate::Scale;
    use mtm_runner::{grid, RunnerOptions};
    use mtm_stats::pool;

    #[test]
    fn fig5_rows_and_ranges() {
        let g = grid::run(
            Scale::Smoke,
            &RunnerOptions::parallel(pool::default_threads()),
        );
        let t = super::run(&g);
        assert_eq!(t.rows.len(), 4 * 3 * 4);
        for row in &t.rows {
            let (min, avg, max) = (row.values[0], row.values[1], row.values[2]);
            assert!(min <= avg && avg <= max, "{}: {min} {avg} {max}", row.label);
            assert!(max < Scale::Smoke.steps() as f64 + 1.0);
        }
    }
}
