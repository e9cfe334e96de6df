//! `BENCH_gp.json`: propose latency of the incremental surrogate against
//! a full refit, hyperparameter fits with and without idle cores, and the
//! gate.

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

/// One hyperparameter fit at a fixed history, timed twice: with every
/// core claimed, so its restarts run inline, and with nothing claimed, so
/// they spread over the spare cores.
#[derive(Debug, Default, Serialize)]
pub struct RefitCell {
    /// Observation-history size of the fitted surrogate.
    pub history: usize,
    /// Cores the machine reports; with one, both arms run inline.
    pub nproc: usize,
    /// Median wall seconds per fit with every core claimed.
    pub fit_inline_s: f64,
    /// Median wall seconds per fit with nothing claimed.
    pub fit_spare_s: f64,
    /// Every fit of both arms left the same hyperparameter and LML bits.
    pub fit_bitwise: bool,
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
    /// One fit per refit history (60, the paper protocol's largest, and
    /// 180), inline against spread.
    pub refits: Vec<RefitCell>,
}

impl GpRecord {
    /// Pass when the history-180 cell reaches [`MIN_SPEEDUP_AT_180`] and
    /// no refit's bits depend on the cores it ran on. The refits set no
    /// speed floor: a one-core machine has no spare core to use.
    pub fn gate(&self) -> Result<(), String> {
        if self.refits.is_empty() {
            return Err("no refit cell".into());
        }
        if let Some(refit) = self.refits.iter().find(|r| !r.fit_bitwise) {
            return Err(format!(
                "hyperparameter fit at history {} differs between inline and {}-core runs",
                refit.history, refit.nproc
            ));
        }
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
        let refit = |history| RefitCell {
            history,
            nproc: 2,
            fit_bitwise: true,
            ..Default::default()
        };
        GpRecord {
            cells: vec![cell],
            refits: vec![refit(60), refit(180)],
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

    #[test]
    fn refit_must_be_bitwise_with_no_speed_floor() {
        // A spread fit slower than the inline one still passes.
        let mut slow = record(180, 40.0);
        for refit in &mut slow.refits {
            refit.fit_inline_s = 0.1;
            refit.fit_spare_s = 0.2;
        }
        assert_eq!(slow.gate(), Ok(()));
        for (i, history) in [(0, 60), (1, 180)] {
            let mut breach = record(180, 40.0);
            breach.refits[i].fit_bitwise = false;
            let err = breach.gate().unwrap_err();
            assert!(
                err.contains(&format!(
                    "history {history} differs between inline and 2-core runs"
                )),
                "{err}"
            );
        }
        let mut missing = record(180, 40.0);
        missing.refits.clear();
        assert_eq!(missing.gate(), Err("no refit cell".into()));
    }
}
