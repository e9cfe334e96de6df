//! Bounded deterministic fan-out under a process-wide core budget.
//!
//! The workspace's only thread pool: passes, confirmation reps, grid
//! cells, GP hyperparameter restarts, acquisition-scoring chunks and
//! TPE candidate scoring fan out here, as scoped OS threads pulling unit
//! indices from an atomic counter. The calling thread pulls units too,
//! as worker 0, so a fan-out over `w` workers spawns `w − 1` threads.
//! Results land in unit order regardless of which thread ran what or in
//! what order units finished — combined with per-unit seed derivation
//! this is what makes parallel runs bitwise-identical to serial ones.
//!
//! **Core budget.** The pool keeps one process-wide count of claimed
//! cores. Every worker of a parallel fan-out (the caller included) holds
//! one for the fan-out's lifetime, and a long-running task outside the
//! pool (an `mtm-serve` dispatch worker's session) takes one with
//! [`claim`]. [`spare`] is what a nested fan-out may use: the machine's
//! cores minus the claims *other* threads hold, at least 1. Thread count
//! never changes a result here, so the budget needs no knob: it only
//! decides how many idle cores a fan-out may borrow.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cores claimed process-wide: live [`Claim`]s plus parallel fan-outs'
/// spawned workers.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's core is counted in [`CLAIMED`].
    static HOLDS_CLAIM: Cell<bool> = const { Cell::new(false) };
}

/// `n` cores counted in [`CLAIMED`] until dropped (also on unwind).
struct Cores(usize);

impl Cores {
    fn take(n: usize) -> Self {
        CLAIMED.fetch_add(n, Ordering::Relaxed);
        Cores(n)
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// The calling thread's claim on one core, released on drop (also when
/// the thread unwinds). Bound to the thread that took it.
#[must_use = "the core is released as soon as the claim drops"]
pub struct Claim {
    /// `None` when the thread already held a claim: claims do not nest.
    cores: Option<Cores>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.cores.take().is_some() {
            HOLDS_CLAIM.with(|held| held.set(false));
        }
    }
}

/// Claim a core for the calling thread until the returned guard drops. A
/// thread that already holds a claim gets a no-op guard, so nested claims
/// count the thread once.
pub fn claim() -> Claim {
    let fresh = !HOLDS_CLAIM.with(|held| held.replace(true));
    Claim {
        cores: fresh.then(|| Cores::take(1)),
        _thread_bound: PhantomData,
    }
}

/// Workers a fan-out started on this thread may use:
/// [`default_threads`] minus the claims other threads hold, at least 1.
pub fn spare() -> usize {
    spare_of(default_threads())
}

/// [`spare`] against a machine of `cores` cores.
fn spare_of(cores: usize) -> usize {
    let own = usize::from(HOLDS_CLAIM.with(Cell::get));
    let others = CLAIMED.load(Ordering::Relaxed).saturating_sub(own);
    cores.saturating_sub(others).max(1)
}

/// Run `n` independent work units on up to `threads` OS threads (the
/// caller plus `threads − 1` spawned ones) and return their results **in
/// unit order**. `threads <= 1` runs inline with zero overhead. `f` must
/// be freely callable from any thread; unit index is the only
/// scheduling-visible input it receives. A panicking unit propagates its
/// panic to the caller once every worker has stopped.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    // Every worker's core is counted before any unit runs, so each unit
    // sees the whole fan-out's claims in `spare`.
    let _caller = claim();
    let _spawned = Cores::take(workers - 1);
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    HOLDS_CLAIM.with(|held| held.set(true));
                    drain()
                })
            })
            .collect();
        let mut collected = drain();
        for handle in handles {
            match handle.join() {
                Ok(done) => collected.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        collected
    });
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, out)| out).collect()
}

/// The machine's available parallelism, defaulting to 1 when unknown.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The claim count is process-wide and the test harness runs tests
    /// concurrently: every test here holds this lock so no other test's
    /// fan-out is live while one reads [`spare`].
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn preserves_unit_order() {
        let _serial = serial();
        let out = run_indexed(100, 8, |i| {
            // Stagger finish order: later units finish first.
            std::thread::sleep(std::time::Duration::from_micros((100 - i) as u64));
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn caller_works_as_worker_zero_and_keeps_unit_order() {
        let _serial = serial();
        let caller = std::thread::current().id();
        let out = run_indexed(60, 3, |i| {
            std::thread::sleep(std::time::Duration::from_micros((60 - i) as u64 * 10));
            (i, std::thread::current().id())
        });
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..60).collect::<Vec<_>>()
        );
        // Three workers are the caller plus two spawned threads.
        let spawned: std::collections::HashSet<_> = out
            .iter()
            .map(|&(_, id)| id)
            .filter(|&id| id != caller)
            .collect();
        assert!(
            spawned.len() <= 2,
            "{} spawned threads ran units",
            spawned.len()
        );
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _serial = serial();
        let serial = run_indexed(37, 1, |i| i as u64 * 17 + 5);
        let parallel = run_indexed(37, 6, |i| i as u64 * 17 + 5);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_edge_counts() {
        let _serial = serial();
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i), vec![0]);
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn unclaimed_thread_sees_every_core() {
        let _serial = serial();
        assert_eq!(spare(), default_threads());
        assert_eq!(spare_of(2), 2);
    }

    #[test]
    fn each_unit_of_a_two_worker_fan_out_sees_one_spare_core() {
        let _serial = serial();
        assert_eq!(run_indexed(2, 2, |_| spare_of(2)), vec![1, 1]);
        assert_eq!(run_indexed(6, 2, |_| spare_of(4)), vec![3; 6]);
        // Inline runs claim nothing.
        assert_eq!(run_indexed(2, 1, |_| spare_of(2)), vec![2, 2]);
        assert_eq!(spare_of(2), 2, "the fan-out released its cores");
    }

    #[test]
    fn a_claim_holder_does_not_count_itself() {
        let _serial = serial();
        let outer = claim();
        assert_eq!(spare_of(2), 2);
        {
            // Nested claims count the thread once.
            let _inner = claim();
            assert_eq!(spare_of(2), 2);
        }
        // Another thread sees the claim.
        assert_eq!(
            std::thread::scope(|s| s.spawn(|| spare_of(2)).join()).ok(),
            Some(1)
        );
        // A fan-out from a claim holder adds only its spawned worker.
        assert_eq!(run_indexed(2, 2, |_| spare_of(4)), vec![3, 3]);
        drop(outer);
        assert_eq!(
            std::thread::scope(|s| s.spawn(|| spare_of(2)).join()).ok(),
            Some(2)
        );
    }

    #[test]
    fn claims_are_released_on_drop_and_on_panic() {
        let _serial = serial();
        drop(claim());
        assert_eq!(spare_of(2), 2);

        let claimed_then_panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _core = claim();
                panic!("unit failure");
            })
            .join()
        });
        assert!(claimed_then_panicked.is_err());
        assert_eq!(spare_of(2), 2);

        let fan_out = std::panic::catch_unwind(|| {
            run_indexed(4, 2, |i| {
                if i == 1 {
                    panic!("unit 1 failed");
                }
                i
            })
        });
        let payload = fan_out.expect_err("a panicking unit propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 1 failed"));
        assert_eq!(spare_of(2), 2);
        assert!(!HOLDS_CLAIM.with(Cell::get));
    }
}
