//! `BENCH_obs.json`: what recording costs, against the A/A noise floor
//! of the `NullRecorder` path, and its gate.

use serde::Serialize;

use mtm_stats::quantile::median;

/// A/A delta above this percentage fails the zero-cost claim. Loose on
/// purpose: shared CI machines jitter, and a real recording cost on
/// these microsecond-to-millisecond workloads would blow far past it.
pub const NOISE_TOLERANCE_PCT: f64 = 15.0;

/// Mem-arm overhead above this percentage fails the bench. The arena
/// `MemRecorder` buffers events into preallocated slots, so recording a
/// workload should cost event construction plus stores — not a
/// multiple of the workload. (A gate on the A/A delta alone once let a
/// 230% mem-arm regression ride through unnoticed.) Tightened 25 → 20
/// once the arena recorder plus the SoA flow path settled the
/// steady-state overhead around 11%.
pub const MEM_OVERHEAD_TOLERANCE_PCT: f64 = 20.0;

/// One workload timed through two `NullRecorder` arms and a `MemRecorder`
/// arm.
#[derive(Debug, Serialize)]
pub struct ObsCell {
    /// Workload label.
    pub workload: &'static str,
    /// Median wall seconds, first `NullRecorder` arm.
    pub null_a_s: f64,
    /// Median wall seconds, second `NullRecorder` arm (same code).
    pub null_b_s: f64,
    /// `|null_a − null_b| / min(null_a, null_b)`, in percent — the
    /// noise floor the zero-cost claim is judged against.
    pub aa_delta_pct: f64,
    /// Median wall seconds with a live `MemRecorder`.
    pub mem_s: f64,
    /// Events one recorded run produced.
    pub mem_events: usize,
    /// `(mem − min null) / min null`, in percent.
    pub mem_overhead_pct: f64,
    /// `aa_delta_pct <= NOISE_TOLERANCE_PCT`.
    pub within_noise: bool,
    /// `mem_overhead_pct <= MEM_OVERHEAD_TOLERANCE_PCT` — the gate the
    /// mem arm is actually judged by.
    pub mem_within_tolerance: bool,
}

impl ObsCell {
    /// A cell from the per-rep wall seconds of its three arms.
    pub fn new(
        workload: &'static str,
        null_a: &[f64],
        null_b: &[f64],
        mem: &[f64],
        mem_events: usize,
    ) -> Self {
        let null_a_s = median(null_a).unwrap_or(f64::NAN);
        let null_b_s = median(null_b).unwrap_or(f64::NAN);
        let floor = null_a_s.min(null_b_s).max(1e-12);
        let aa_delta_pct = (null_a_s - null_b_s).abs() / floor * 100.0;
        let mem_s = median(mem).unwrap_or(f64::NAN);
        let mem_overhead_pct = (mem_s - floor) / floor * 100.0;
        ObsCell {
            workload,
            null_a_s,
            null_b_s,
            aa_delta_pct,
            mem_s,
            mem_events,
            mem_overhead_pct,
            within_noise: aa_delta_pct <= NOISE_TOLERANCE_PCT,
            mem_within_tolerance: mem_overhead_pct <= MEM_OVERHEAD_TOLERANCE_PCT,
        }
    }
}

/// The record `bench_obs` writes.
#[derive(Debug, Default, Serialize)]
pub struct ObsRecord {
    /// Record name (`"obs"`).
    pub bench: &'static str,
    /// Tuned parameters of the propose workload.
    pub dim: usize,
    /// Observation history of the propose workload.
    pub history: usize,
    /// Timed repetitions per arm.
    pub reps: usize,
    /// [`NOISE_TOLERANCE_PCT`].
    pub noise_tolerance_pct: f64,
    /// [`MEM_OVERHEAD_TOLERANCE_PCT`].
    pub mem_overhead_tolerance_pct: f64,
    /// One cell per workload.
    pub cells: Vec<ObsCell>,
}

impl ObsRecord {
    /// Pass when every cell's A/A delta is within the noise tolerance and
    /// its mem-arm overhead within the overhead tolerance.
    pub fn gate(&self) -> Result<(), String> {
        for c in &self.cells {
            if !c.within_noise {
                return Err(format!(
                    "{}: A/A null-recorder delta {:.1}% exceeds the {NOISE_TOLERANCE_PCT}% tolerance",
                    c.workload, c.aa_delta_pct
                ));
            }
            if !c.mem_within_tolerance {
                return Err(format!(
                    "{}: mem-arm overhead {:.1}% exceeds the {MEM_OVERHEAD_TOLERANCE_PCT}% tolerance",
                    c.workload, c.mem_overhead_pct
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose "probe" cell has medians 1.0 (null A), `null_b`
    /// and `mem`.
    fn record(null_b: f64, mem: f64) -> ObsRecord {
        let cells = vec![
            ObsCell::new("quiet", &[1.0], &[1.0], &[1.0], 1),
            ObsCell::new("probe", &[0.9, 1.0, 5.0], &[null_b; 3], &[mem; 3], 31),
        ];
        ObsRecord {
            cells,
            ..Default::default()
        }
    }

    #[test]
    fn aa_noise_gate() {
        assert_eq!(record(1.125, 1.125).gate(), Ok(()));
        let err = record(1.25, 1.25).gate().unwrap_err();
        assert!(
            err.contains("probe: A/A null-recorder delta 25.0%"),
            "{err}"
        );
    }

    #[test]
    fn mem_overhead_gate() {
        assert_eq!(record(1.0, 1.1875).gate(), Ok(()));
        let err = record(1.0, 1.25).gate().unwrap_err();
        assert!(err.contains("probe: mem-arm overhead 25.0%"), "{err}");
    }
}
