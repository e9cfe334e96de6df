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
    out.push_str(&trend_verdict(&sizes, &bo_times));
    out
}

/// The least r² a `time ~ size^b` fit must reach before its exponent
/// counts as a trend. Below one half the fit explains less of the
/// variance of log time than it leaves unexplained, and flat noisy times
/// give an exponent below 1 as readily as sublinear growth does.
pub const MIN_TREND_R2: f64 = 0.5;

/// The verdict line on the paper's sublinear-growth claim for mean step
/// `times` at topology `sizes`: `no fit` when no power law can be fitted
/// (a time or size that is not positive, or one size only), `no trend`
/// when the fit's r² is below [`MIN_TREND_R2`], and otherwise OK for an
/// exponent below 1 and DEVIATES for one at or above it.
pub fn trend_verdict(sizes: &[f64], times: &[f64]) -> String {
    let head = "bo step-time growth:";
    match power_law_fit(sizes, times) {
        None => format!("{head} no fit (times {times:?})\n"),
        Some((_, b, r2)) if r2 < MIN_TREND_R2 => {
            format!("{head} time ~ size^{b:.2} -> no trend (r2 {r2:.2} < {MIN_TREND_R2})\n")
        }
        Some((_, b, r2)) => format!(
            "{head} time ~ size^{b:.2} (r2 {r2:.2}) -> sublinear: {}\n",
            if b < 1.0 { "OK" } else { "DEVIATES" }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::trend_verdict;
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

    const SIZES: [f64; 3] = [10.0, 50.0, 100.0];

    #[test]
    fn flat_noisy_times_are_no_trend() {
        let v = trend_verdict(&SIZES, &[0.0115, 0.0079, 0.0138]);
        assert!(v.contains("no trend (r2 0.0"), "{v}");
        assert!(!v.contains("OK") && !v.contains("DEVIATES"), "{v}");
    }

    #[test]
    fn square_root_growth_is_sublinear() {
        let times = SIZES.map(|s: f64| 0.01 * s.sqrt());
        let v = trend_verdict(&SIZES, &times);
        assert!(v.contains("size^0.50 (r2 1.00) -> sublinear: OK"), "{v}");
    }

    #[test]
    fn superlinear_growth_deviates() {
        let times = SIZES.map(|s: f64| 1e-4 * s.powf(1.5));
        let v = trend_verdict(&SIZES, &times);
        assert!(
            v.contains("size^1.50 (r2 1.00) -> sublinear: DEVIATES"),
            "{v}"
        );
    }

    #[test]
    fn a_zero_time_is_no_fit() {
        let v = trend_verdict(&SIZES, &[0.0, 0.01, 0.02]);
        assert!(v.contains("no fit"), "{v}");
        assert!(!v.contains("OK") && !v.contains("DEVIATES"), "{v}");
    }
}
