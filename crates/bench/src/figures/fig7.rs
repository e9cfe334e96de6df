//! Fig. 7 — scalability: wall-clock time one optimization step takes, per
//! strategy and topology size.
//!
//! The paper's claims: pla/ipla are "barely visible" (sub-second);
//! Spearmint's step time grows **sublinearly** in the number of
//! parameters; the informed optimizer (one float multiplier) is somewhat
//! slower per step than the integer-hint optimizer in their setup. We
//! report our measured step times and fit `time ~ size^b` to verify
//! sublinearity.

use mtm_core::report::Table;
use mtm_stats::linreg::power_law_fit;
use mtm_topogen::{condition_name, Condition, SizeClass};

use mtm_runner::grid::Grid;

/// Strategies Fig. 7 plots.
pub const FIG7_STRATEGIES: [&str; 4] = ["pla", "bo", "ipla", "ibo"];

/// Build the Fig. 7 table: average optimizer seconds per step.
pub fn run(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Fig. 7: average optimizer time per step (seconds)",
        &["avg_s", "min_s", "max_s"],
    );
    for condition in Condition::grid() {
        for size in SizeClass::all() {
            for &strategy in FIG7_STRATEGIES.iter() {
                if let Some(cell) = grid.cell(size, &condition, strategy) {
                    let times: Vec<f64> = cell
                        .result
                        .passes
                        .iter()
                        .flat_map(|p| p.steps.iter().map(|s| s.optimizer_time_s))
                        .collect();
                    let avg = times.iter().sum::<f64>() / times.len().max(1) as f64;
                    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
                    let max = times.iter().cloned().fold(0.0_f64, f64::max);
                    table.push(
                        &format!(
                            "{} | {} | {strategy}",
                            condition_name(&condition),
                            size.label()
                        ),
                        vec![avg, min.min(max), max],
                    );
                }
            }
        }
    }
    table
}

/// Check the paper's scalability claims: linear strategies ~free, bo step
/// time grows sublinearly with the number of tuned parameters.
pub fn shape_report(grid: &Grid) -> String {
    let avg_for = |strategy: &str, size: SizeClass| -> f64 {
        let mut sum = 0.0;
        let mut n = 0.0_f64;
        for condition in Condition::grid() {
            if let Some(cell) = grid.cell(size, &condition, strategy) {
                for p in &cell.result.passes {
                    for s in &p.steps {
                        sum += s.optimizer_time_s;
                        n += 1.0;
                    }
                }
            }
        }
        sum / n.max(1.0)
    };

    let sizes = [10.0, 50.0, 100.0];
    let bo_times: Vec<f64> = SizeClass::all().iter().map(|&s| avg_for("bo", s)).collect();
    let pla_time = avg_for("pla", SizeClass::Large);

    let mut out = String::new();
    out.push_str(&format!(
        "bo avg step time: small {:.4}s, medium {:.4}s, large {:.4}s\n",
        bo_times[0], bo_times[1], bo_times[2]
    ));
    out.push_str(&format!(
        "pla avg step time (large): {pla_time:.6}s -> barely visible: {}\n",
        if pla_time < 0.01 { "OK" } else { "DEVIATES" }
    ));
    if let Some((_, b, r2)) = power_law_fit(&sizes, &bo_times) {
        out.push_str(&format!(
            "bo step-time growth: time ~ size^{b:.2} (r2 {r2:.2}) -> sublinear: {}\n",
            if b < 1.0 { "OK" } else { "DEVIATES" }
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
    fn fig7_times_are_sane() {
        let g = grid::run(
            Scale::Smoke,
            &RunnerOptions::parallel(pool::default_threads()),
        );
        let t = super::run(&g);
        assert_eq!(t.rows.len(), 4 * 3 * 4);
        for row in &t.rows {
            assert!(row.values[0] >= 0.0 && row.values[0].is_finite());
        }
        // pla rows are effectively free.
        for row in t.rows.iter().filter(|r| r.label.ends_with("| pla")) {
            assert!(row.values[0] < 0.01, "{}: {}", row.label, row.values[0]);
        }
    }
}
