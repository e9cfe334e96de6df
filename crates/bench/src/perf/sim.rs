//! `BENCH_sim.json`: batched against per-config flow simulation, and its
//! gate.

use serde::Serialize;

/// Batched must beat per-config sequential by at least this factor at
/// the largest size. The shared analysis alone buys more than this at
/// V = 10k; regressing below it means the batch path started redoing
/// per-config work.
pub const MIN_SPEEDUP_AT_10K: f64 = 3.0;

/// One topology size.
#[derive(Debug, Default, Serialize)]
pub struct SimCell {
    /// Workload label (`v100`, `v1k`, `v10k`).
    pub workload: &'static str,
    /// Vertices in the generated topology.
    pub vertices: usize,
    /// Configurations per sweep.
    pub n_configs: u32,
    /// Median wall seconds for N sequential per-config evaluations
    /// (each call re-analyzes the topology — the status quo the batch
    /// path replaces).
    pub sequential_s: f64,
    /// Median wall seconds for one warm batched evaluation of the same
    /// N configurations.
    pub batched_s: f64,
    /// `sequential_s / batched_s`.
    pub speedup: f64,
    /// Every batched result bitwise-equal to its sequential twin.
    pub bitwise_identical: bool,
}

/// The record `bench_sim` writes.
#[derive(Debug, Default, Serialize)]
pub struct SimRecord {
    /// Record name (`"sim"`).
    pub bench: &'static str,
    /// Timed repetitions per arm.
    pub reps: usize,
    /// [`MIN_SPEEDUP_AT_10K`].
    pub min_speedup_at_10k: f64,
    /// One cell per topology size.
    pub cells: Vec<SimCell>,
}

impl SimRecord {
    /// Pass when every cell is bitwise-identical and the `v10k` cell
    /// reaches [`MIN_SPEEDUP_AT_10K`].
    pub fn gate(&self) -> Result<(), String> {
        if let Some(c) = self.cells.iter().find(|c| !c.bitwise_identical) {
            return Err(format!(
                "{}: batched results diverged from sequential",
                c.workload
            ));
        }
        let big = self
            .cells
            .iter()
            .find(|c| c.workload == "v10k")
            .ok_or("missing v10k cell")?;
        if big.speedup < MIN_SPEEDUP_AT_10K {
            return Err(format!(
                "v10k speedup {:.2}x is below the {MIN_SPEEDUP_AT_10K}x gate",
                big.speedup
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(v1k_bitwise: bool, v10k_speedup: f64) -> SimRecord {
        let cell = |workload, speedup, bitwise_identical| SimCell {
            workload,
            speedup,
            bitwise_identical,
            ..Default::default()
        };
        SimRecord {
            cells: vec![
                cell("v1k", 1.0, v1k_bitwise),
                cell("v10k", v10k_speedup, true),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn bitwise_identity_gate() {
        assert_eq!(record(true, 7.0).gate(), Ok(()));
        let err = record(false, 7.0).gate().unwrap_err();
        assert!(err.contains("v1k: batched results diverged"), "{err}");
    }

    #[test]
    fn speedup_floor_at_10k() {
        assert_eq!(record(true, 3.0).gate(), Ok(()));
        let err = record(true, 2.9).gate().unwrap_err();
        assert!(err.contains("v10k speedup 2.90x"), "{err}");
    }
}
