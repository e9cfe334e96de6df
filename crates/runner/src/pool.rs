//! Bounded deterministic fan-out.
//!
//! The workspace's only thread pool: passes, confirmation reps and grid
//! cells fan out here, as scoped OS threads pulling unit indices from an
//! atomic counter. Results land in unit order regardless of which thread
//! ran what or in what order units finished — combined with per-unit
//! seed derivation this is what makes parallel runs bitwise-identical to
//! serial ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `n` independent work units on up to `threads` OS threads and
/// return their results **in unit order**. `threads <= 1` runs inline
/// with zero overhead. `f` must be freely callable from any thread; unit
/// index is the only scheduling-visible input it receives.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                // mtm-allow: lock -- the guard only wraps the Vec push; the IO the analyzer reaches is bare-name fan-out from `push`, never called here
                let mut guard = match results.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                guard.push((i, out));
            });
        }
    });

    let mut collected = match results.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
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

    #[test]
    fn preserves_unit_order() {
        let out = run_indexed(100, 8, |i| {
            // Stagger finish order: later units finish first.
            std::thread::sleep(std::time::Duration::from_micros((100 - i) as u64));
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(37, 1, |i| i as u64 * 17 + 5);
        let parallel = run_indexed(37, 6, |i| i as u64 * 17 + 5);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_edge_counts() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i), vec![0]);
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }
}
