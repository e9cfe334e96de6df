//! Fig. 4 — throughput of every strategy across the synthetic grid.

use mtm_core::report::{bar_stats, Table};
use mtm_topogen::{condition_name, Condition, SizeClass};

use mtm_runner::grid::{Grid, STRATEGIES};

/// Build the Fig. 4 table (one row per grid cell: mean/min/max of the 30
/// confirmation runs of the best configuration).
pub fn run(grid: &Grid) -> Table {
    let mut table = Table::new(
        "Fig. 4: throughput (tuples/s) — mean/min/max of confirmation runs",
        &["mean", "min", "max"],
    );
    for condition in Condition::grid() {
        for size in SizeClass::all() {
            for &strategy in STRATEGIES.iter() {
                if let Some(cell) = grid.cell(size, &condition, strategy) {
                    let (mean, min, max) = bar_stats(&cell.result);
                    table.push(
                        &format!(
                            "{} | {} | {strategy}",
                            condition_name(&condition),
                            size.label()
                        ),
                        vec![mean, min, max],
                    );
                }
            }
        }
    }
    table
}

/// Qualitative checks of the paper's headline Fig. 4 claims, returning a
/// human-readable report. Used by EXPERIMENTS.md generation and tests.
pub fn shape_report(grid: &Grid) -> String {
    let mut out = String::new();
    let mean = |size, cond: &Condition, s: &str| {
        grid.cell(size, cond, s)
            .map(|c| c.result.mean())
            .unwrap_or(0.0)
    };
    let tl = Condition {
        time_imbalance: 0.0,
        contention: 0.0,
    };
    let tr = Condition {
        time_imbalance: 0.0,
        contention: 0.25,
    };
    let br = Condition {
        time_imbalance: 1.0,
        contention: 0.25,
    };

    // 1. Homogeneous: linear strategies hold their own on medium/large.
    for size in [SizeClass::Medium, SizeClass::Large] {
        let linear = mean(size, &tl, "pla").max(mean(size, &tl, "ipla"));
        let bo = mean(size, &tl, "bo");
        out.push_str(&format!(
            "TL {}: linear {linear:.0} vs bo {bo:.0} -> {}\n",
            size.label(),
            if linear >= bo * 0.95 {
                "OK (bo finds no better)"
            } else {
                "DEVIATES"
            }
        ));
    }
    // 2. Contention: BO beats pla on medium/large.
    for size in [SizeClass::Medium, SizeClass::Large] {
        let pla = mean(size, &tr, "pla");
        let bo = mean(size, &tr, "bo");
        out.push_str(&format!(
            "TR {}: bo {bo:.0} vs pla {pla:.0} -> {}\n",
            size.label(),
            if bo > pla {
                "OK (BO helps substantially)"
            } else {
                "DEVIATES"
            }
        ));
    }
    // 3. Hardest cell: plain bo best on small.
    {
        let bo = mean(SizeClass::Small, &br, "bo");
        let others = ["pla", "ipla", "ibo"]
            .iter()
            .map(|s| mean(SizeClass::Small, &br, s))
            .fold(0.0_f64, f64::max);
        out.push_str(&format!(
            "BR small: bo {bo:.0} vs best-other {others:.0} -> {}\n",
            if bo >= others {
                "OK (uninformed BO wins)"
            } else {
                "DEVIATES"
            }
        ));
    }
    // 4. bo180 >= bo everywhere.
    let mut ok = 0;
    let mut total = 0;
    for cond in Condition::grid() {
        for size in SizeClass::all() {
            let b60 = mean(size, &cond, "bo");
            let b180 = mean(size, &cond, "bo180");
            total += 1;
            if b180 >= b60 * 0.95 {
                ok += 1;
            }
        }
    }
    out.push_str(&format!("bo180 >= bo in {ok}/{total} cells\n"));
    out
}

#[cfg(test)]
mod tests {
    use crate::Scale;
    use mtm_runner::{grid, RunnerOptions};
    use mtm_stats::pool;

    #[test]
    fn fig4_table_has_all_cells() {
        let g = grid::run(
            Scale::Smoke,
            &RunnerOptions::parallel(pool::default_threads()),
        );
        let t = super::run(&g);
        // 4 conditions × 3 sizes × 8 strategies (the paper's five plus
        // the tpe/hyperband/random zoo).
        assert_eq!(t.rows.len(), 4 * 3 * 8);
        let report = super::shape_report(&g);
        assert!(report.contains("bo180"));
    }
}
