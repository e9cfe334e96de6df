//! `BENCH_gp.json`: propose latency of the incremental surrogate against
//! a full refit, and its gate.

use serde::Serialize;

/// The incremental surrogate must beat a full refit by at least this
/// factor at history 180. A loose floor: shared CI machines are noisy,
/// and the speedup seen locally is 10–80×.
pub const MIN_SPEEDUP_AT_180: f64 = 5.0;

/// One observation-history size.
#[derive(Debug, Default, Serialize)]
pub struct HistoryCell {
    /// Observation-history size the proposal was measured at.
    pub history: usize,
    /// Median wall seconds per propose, incremental surrogate.
    pub incremental_propose_s: f64,
    /// Median wall seconds per propose, invalidate-then-propose baseline.
    pub full_refit_propose_s: f64,
    /// `full_refit_propose_s / incremental_propose_s`.
    pub speedup: f64,
}

/// The record `bench_gp` writes.
#[derive(Debug, Default, Serialize)]
pub struct GpRecord {
    /// Record name (`"gp"`).
    pub bench: &'static str,
    /// Tuned integer parameters.
    pub dim: usize,
    /// Initial design size.
    pub n_init: usize,
    /// Hyperparameter refit cadence, in observations.
    pub refit_every: usize,
    /// Acquisition candidates scored per proposal.
    pub n_candidates: usize,
    /// Timed repetitions per cell.
    pub reps: usize,
    /// [`MIN_SPEEDUP_AT_180`].
    pub min_speedup_at_180: f64,
    /// One cell per history size.
    pub cells: Vec<HistoryCell>,
}

impl GpRecord {
    /// Pass when the history-180 cell reaches [`MIN_SPEEDUP_AT_180`].
    pub fn gate(&self) -> Result<(), String> {
        let cell = self
            .cells
            .iter()
            .find(|c| c.history == 180)
            .ok_or("missing history-180 cell")?;
        if cell.speedup < MIN_SPEEDUP_AT_180 {
            return Err(format!(
                "incremental propose at history 180 only {:.2}x faster than a full refit \
                 (floor {MIN_SPEEDUP_AT_180}x)",
                cell.speedup
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(history: usize, speedup: f64) -> GpRecord {
        let cell = HistoryCell {
            history,
            speedup,
            ..Default::default()
        };
        GpRecord {
            cells: vec![cell],
            ..Default::default()
        }
    }

    #[test]
    fn speedup_floor_at_history_180() {
        assert_eq!(record(180, 5.0).gate(), Ok(()));
        let err = record(180, 4.9).gate().unwrap_err();
        assert!(err.contains("history 180 only 4.90x"), "{err}");
        assert!(record(60, 80.0).gate().is_err(), "no history-180 cell");
    }
}
