//! `BENCH_strategies.json`: every zoo strategy against the paper's four
//! under one measurement-effort budget, and its floor gate.

use serde::Serialize;

/// One `(size, strategy)` run.
#[derive(Debug, Default, Serialize)]
pub struct StrategyCell {
    /// Topology size label (`small`, `medium`, `large`).
    pub size: &'static str,
    /// Strategy label.
    pub strategy: &'static str,
    /// Best step-averaged objective found within the budget.
    pub final_best: f64,
    /// Cumulative measurement reps to 95% of the size's best final
    /// objective (the record's `unreached` if never reached).
    pub t95_reps: usize,
    /// Total measurement reps actually spent.
    pub effort_reps: usize,
    /// Steps taken (≠ reps for Hyperband).
    pub steps: usize,
}

/// The record `bench_strategies` writes.
#[derive(Debug, Default, Serialize)]
pub struct StrategiesRecord {
    /// Record name (`"strategies"`).
    pub bench: &'static str,
    /// Seed of the whole record.
    pub seed: u64,
    /// Measurement-effort budget per cell, in evaluation reps.
    pub budget_reps: usize,
    /// Sentinel `t95_reps` of a cell that never reached the 95% bar.
    pub unreached: usize,
    /// One cell per `(size, strategy)`.
    pub cells: Vec<StrategyCell>,
}

impl StrategiesRecord {
    /// The floor gate: on Medium, TPE and Hyperband must each reach the
    /// 95% bar with no more measurement effort than random search.
    pub fn gate(&self) -> Result<(), String> {
        let t95_of = |strategy: &str| {
            self.cells
                .iter()
                .find(|c| c.size == "medium" && c.strategy == strategy)
                .map(|c| c.t95_reps)
                .ok_or_else(|| format!("missing medium/{strategy} cell"))
        };
        let floor = t95_of("random")?;
        for challenger in ["tpe", "hyperband"] {
            let t95 = t95_of(challenger)?;
            if t95 > floor {
                return Err(format!(
                    "medium/{challenger} t95 {t95} reps exceeds the random floor's {floor}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tpe: usize, hyperband: usize) -> StrategiesRecord {
        let cell = |size, strategy, t95_reps| StrategyCell {
            size,
            strategy,
            t95_reps,
            ..Default::default()
        };
        StrategiesRecord {
            cells: vec![
                cell("large", "random", 1),
                cell("medium", "random", 14),
                cell("medium", "tpe", tpe),
                cell("medium", "hyperband", hyperband),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn t95_at_most_random_on_medium() {
        assert_eq!(record(8, 14).gate(), Ok(()), "a tie with random passes");
        let err = record(15, 8).gate().unwrap_err();
        assert!(err.contains("medium/tpe t95 15 reps"), "{err}");
        let err = record(8, 600).gate().unwrap_err();
        assert!(err.contains("medium/hyperband t95 600 reps"), "{err}");
    }
}
