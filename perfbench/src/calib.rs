//! How fast this machine runs right now.
//!
//! Shared machines change speed by 15–25% over minutes, because of
//! neighbours on the same cores and caches. That swings every timing, CPU
//! time included. The benchmark times a fixed calibration kernel of its own
//! between sessions. It reports the end-to-end timings scaled to the
//! kernel's speed on a reference run, so that a slow minute does not read
//! as a slow program. The kernel shares no code with the program, so a
//! change to the program cannot move it.

use std::time::Instant;

use crate::stats::median;

/// Kernel wall time, in seconds, on the reference machine (a 2-core
/// x86-64 VM) in its fast state. Scaled values read as if every run had
/// been made there.
pub const REFERENCE_S: f64 = 0.009;

/// Dense floating-point work: Cholesky factorizations of a fixed
/// symmetric positive-definite matrix, as the surrogate's linear algebra
/// does.
fn dense(n: usize, rounds: usize) -> f64 {
    let mut a = vec![0.0f64; n * n];
    let mut acc = 0.0;
    for r in 0..rounds {
        for i in 0..n {
            for j in 0..n {
                let d = (i as f64 - j as f64) / n as f64;
                a[i * n + j] =
                    (-d * d * 4.0).exp() + if i == j { 1e-3 * (r + 1) as f64 } else { 0.0 };
            }
        }
        for j in 0..n {
            let mut s = a[j * n + j];
            for k in 0..j {
                s -= a[j * n + k] * a[j * n + k];
            }
            let d = s.max(1e-12).sqrt();
            a[j * n + j] = d;
            for i in j + 1..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = s / d;
            }
        }
        acc += a[n * n - 1];
    }
    acc
}

/// Branchy integer and memory work: formatting numbers into text and
/// hashing it, as journaling and configuration hashing do.
fn textual(items: usize) -> u64 {
    let mut text = String::with_capacity(items * 8);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..items {
        text.clear();
        for k in 0..8u64 {
            text.push_str(&((i as u64).wrapping_mul(2_654_435_761) ^ k).to_string());
            text.push(',');
        }
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Time one run of the kernel, in seconds.
pub fn kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(dense(std::hint::black_box(48), 36));
    std::hint::black_box(textual(std::hint::black_box(18_000)));
    t.elapsed().as_secs_f64()
}

/// Kernel timings gathered over one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// A calibration whose first, cold run of the kernel (page faults,
    /// clock ramp-up) is already done and discarded.
    pub fn warmed() -> Calibration {
        std::hint::black_box(kernel());
        Calibration::default()
    }

    /// Time the kernel once more; returns how much slower than the
    /// reference it ran.
    pub fn sample(&mut self) -> f64 {
        let k = kernel();
        self.samples.push(k);
        k / REFERENCE_S
    }

    /// How much slower than the reference this run's machine was: the
    /// median kernel time over [`REFERENCE_S`] (1 when nothing was
    /// sampled).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / REFERENCE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_work() {
        assert_eq!(dense(16, 2).to_bits(), dense(16, 2).to_bits());
        assert_eq!(textual(50), textual(50));
        assert!(kernel() > 0.0);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        let mut c = Calibration::default();
        assert_eq!(c.slowdown(), 1.0);
        c.samples = vec![REFERENCE_S * 2.0, REFERENCE_S * 3.0, REFERENCE_S * 2.0];
        assert_eq!(c.slowdown(), 2.0);
        assert!(c.sample() > 0.0);
    }
}
