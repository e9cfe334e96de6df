//! `BENCH_serve.json`: tuning-service throughput and poll latency, and
//! its gate.

use serde::Serialize;

use mtm_stats::quantile::{median, quantile};

/// A/A throughput delta above this percentage fails the bench. Looser
/// than the obs bench: whole-service throughput on shared CI machines
/// jitters with scheduler noise, and a real regression (a lock held
/// across a session run, an O(sessions) poll) costs integer factors.
pub const NOISE_TOLERANCE_PCT: f64 = 40.0;

/// p99 poll latency cap in milliseconds. A poll is one mutex grab and a
/// map lookup; even with every worker saturated it sits far below this.
pub const P99_CAP_MS: f64 = 250.0;

/// The record `bench_serve` writes.
#[derive(Debug, Serialize)]
pub struct ServeRecord {
    /// Record name (`"serve"`).
    pub bench: &'static str,
    /// Sessions per arm.
    pub sessions: usize,
    /// Dispatch worker threads.
    pub workers: usize,
    /// Timed repetitions per arm.
    pub reps: usize,
    /// [`NOISE_TOLERANCE_PCT`].
    pub noise_tolerance_pct: f64,
    /// [`P99_CAP_MS`].
    pub p99_cap_ms: f64,
    /// Median sessions/s, first arm.
    pub a_sessions_per_s: f64,
    /// Median sessions/s, second arm (same code, same workload).
    pub b_sessions_per_s: f64,
    /// `|a − b| / min(a, b)` in percent — the noise floor.
    pub aa_delta_pct: f64,
    /// p99 poll round-trip latency in milliseconds (interpolated), over
    /// every poll of every rep of both arms.
    pub p99_poll_ms: f64,
    /// Polls the p99 is computed over.
    pub polls: usize,
    /// `aa_delta_pct <= NOISE_TOLERANCE_PCT`.
    pub within_noise: bool,
    /// `p99_poll_ms <= P99_CAP_MS`.
    pub p99_within_cap: bool,
}

impl ServeRecord {
    /// The record from each rep's sessions/s per arm and every poll's
    /// round trip in seconds.
    pub fn new(
        sessions: usize,
        workers: usize,
        arm_a: &[f64],
        arm_b: &[f64],
        poll_secs: &[f64],
    ) -> Self {
        let a_sessions_per_s = median(arm_a).unwrap_or(f64::NAN);
        let b_sessions_per_s = median(arm_b).unwrap_or(f64::NAN);
        let floor = a_sessions_per_s.min(b_sessions_per_s).max(1e-9);
        let aa_delta_pct = (a_sessions_per_s - b_sessions_per_s).abs() / floor * 100.0;
        let p99_poll_ms = quantile(poll_secs, 0.99).unwrap_or(f64::NAN) * 1000.0;
        ServeRecord {
            bench: "serve",
            sessions,
            workers,
            reps: arm_a.len(),
            noise_tolerance_pct: NOISE_TOLERANCE_PCT,
            p99_cap_ms: P99_CAP_MS,
            a_sessions_per_s,
            b_sessions_per_s,
            aa_delta_pct,
            p99_poll_ms,
            polls: poll_secs.len(),
            within_noise: aa_delta_pct <= NOISE_TOLERANCE_PCT,
            p99_within_cap: p99_poll_ms <= P99_CAP_MS,
        }
    }

    /// Pass when the A/A delta is within the noise tolerance and the p99
    /// poll latency within its cap.
    pub fn gate(&self) -> Result<(), String> {
        if !self.within_noise {
            return Err(format!(
                "A/A throughput delta {:.1}% exceeds {NOISE_TOLERANCE_PCT}% tolerance",
                self.aa_delta_pct
            ));
        }
        if !self.p99_within_cap {
            return Err(format!(
                "p99 poll latency {:.1}ms exceeds {P99_CAP_MS}ms cap",
                self.p99_poll_ms
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 polls at 1 ms plus `slow` polls at 400 ms.
    fn polls(slow: usize) -> Vec<f64> {
        let mut p = vec![0.001; 100];
        p.resize(100 + slow, 0.4);
        p
    }

    #[test]
    fn aa_noise_gate() {
        let ok = ServeRecord::new(10, 2, &[1000.0, 1300.0], &[1400.0, 1400.0], &polls(0));
        assert_eq!((ok.reps, ok.polls), (2, 100));
        assert_eq!(ok.gate(), Ok(()), "{ok:?}");
        let noisy = ServeRecord::new(10, 2, &[1000.0], &[1500.0], &polls(0));
        let err = noisy.gate().unwrap_err();
        assert!(err.contains("A/A throughput delta 50.0%"), "{err}");
    }

    #[test]
    fn p99_cap_gate() {
        let fast = ServeRecord::new(10, 2, &[1.0], &[1.0], &polls(1));
        assert_eq!(fast.gate(), Ok(()));
        let slow = ServeRecord::new(10, 2, &[1.0], &[1.0], &polls(2));
        assert!(slow.p99_poll_ms > P99_CAP_MS, "{slow:?}");
        let err = slow.gate().unwrap_err();
        assert!(err.contains("p99 poll latency"), "{err}");
    }
}
