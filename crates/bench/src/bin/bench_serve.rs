//! Throughput and poll-latency record for the tuning service.
//!
//! Drives an in-process `mtm-serve` daemon over its real TCP socket:
//! submits a mixed-strategy batch of smoke-scale sessions, then polls
//! them round-robin to completion, timing every poll request. Two
//! metrics go into the record:
//!
//! * **sessions/s** — submitted → all done, wall clock. Measured as
//!   interleaved A/A arms (the identical workload run twice per rep on
//!   fresh store roots); the delta between the arms is the noise floor,
//!   and the gate is that delta staying within tolerance — a real
//!   throughput cliff cannot hide *between* two runs of the same code.
//! * **p99 poll latency** — the service's responsiveness under load.
//!   Polls are request/response round trips over the socket while every
//!   worker is busy; the p99 over all reps is gated against an absolute
//!   cap that a mutex-held-too-long dispatch core would blow through.
//!
//! Writes the machine-readable `BENCH_serve.json` at the repo root and
//! prints it to stdout.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_serve [-- --sessions N]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use mtm_serve::{
    Client, Daemon, DaemonConfig, DispatchConfig, Endpoint, Quotas, SessionSpec, SessionState,
};
use mtm_stats::quantile::median;

/// Sessions per arm (override with `--sessions`). The acceptance bar is
/// "thousands of concurrent sessions", so the default exercises 1000.
const SESSIONS: usize = 1000;
/// Worker threads in the dispatch pool.
const WORKERS: usize = 8;
/// Timed repetitions per arm; medians go into the record.
const REPS: usize = 3;
/// A/A throughput delta above this percentage fails the bench. Looser
/// than the obs bench: whole-service throughput on shared CI machines
/// jitters with scheduler noise, and a real regression (a lock held
/// across a session run, an O(sessions) poll) costs integer factors.
const NOISE_TOLERANCE_PCT: f64 = 40.0;
/// p99 poll latency cap in milliseconds. A poll is one mutex grab and a
/// map lookup; even with every worker saturated it sits far below this.
const P99_CAP_MS: f64 = 250.0;

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    sessions: usize,
    workers: usize,
    reps: usize,
    noise_tolerance_pct: f64,
    p99_cap_ms: f64,
    /// Median sessions/s, first arm.
    a_sessions_per_s: f64,
    /// Median sessions/s, second arm (same code, same workload).
    b_sessions_per_s: f64,
    /// `|a − b| / min(a, b)` in percent — the noise floor.
    aa_delta_pct: f64,
    /// p99 poll round-trip latency in milliseconds, over every poll of
    /// every rep of both arms.
    p99_poll_ms: f64,
    /// Polls the p99 is computed over.
    polls: usize,
    within_noise: bool,
    p99_within_cap: bool,
}

fn percentile_99(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return f64::NAN;
    }
    let idx = (xs.len() - 1) * 99 / 100;
    xs.get(idx).copied().unwrap_or(f64::NAN)
}

/// One timed pass: fresh root, fresh daemon, `sessions` submissions,
/// round-robin polls to completion. Returns (sessions/s, poll seconds).
fn run_arm(label: &str, rep: usize, sessions: usize) -> Result<(f64, Vec<f64>), String> {
    let root = std::env::temp_dir().join(format!(
        "mtm-bench-serve-{}-{label}-{rep}",
        std::process::id()
    ));
    let daemon = Daemon::start(DaemonConfig {
        root: root.clone(),
        endpoint: Endpoint::parse("tcp:127.0.0.1:0")?,
        dispatch: DispatchConfig {
            workers: WORKERS,
            quotas: Quotas {
                max_queued: sessions + 16,
                per_tenant: sessions + 16,
            },
            trace: false,
        },
    })
    .map_err(|e| e.to_string())?;
    let mut client = Client::connect(daemon.endpoint())?;
    let strategies = ["pla", "bo", "ipla", "ibo"];
    let started = Instant::now();
    let mut ids = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let strategy = strategies.get(i & 0x3).copied().unwrap_or("bo");
        let tenant = format!("tenant-{}", i & 0x7);
        let spec = SessionSpec::smoke(&tenant, strategy, 0x2015 + i as u64);
        ids.push(client.submit(&spec)?);
    }
    // Drive every session to completion, timing each poll round trip.
    // Round-robin over the unfinished set keeps the daemon under
    // continuous poll load while its workers are saturated.
    let mut poll_secs = Vec::with_capacity(sessions * 4);
    let mut pending = ids;
    while !pending.is_empty() {
        let mut still = Vec::with_capacity(pending.len());
        for id in pending {
            let t0 = Instant::now();
            let view = client.poll(&id)?;
            poll_secs.push(t0.elapsed().as_secs_f64());
            match view.state {
                SessionState::Done => {}
                SessionState::Queued | SessionState::Active => still.push(id),
                other => return Err(format!("session {id} ended {other:?}")),
            }
        }
        pending = still;
        if !pending.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let total_s = started.elapsed().as_secs_f64();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    Ok((sessions as f64 / total_s.max(1e-9), poll_secs))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sessions = match args.iter().position(|a| a == "--sessions") {
        Some(pos) => args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "usage: --sessions <N>".to_string())?,
        None => SESSIONS,
    };
    let (mut arm_a, mut arm_b) = (Vec::new(), Vec::new());
    let mut poll_secs: Vec<f64> = Vec::new();
    for rep in 0..REPS {
        eprintln!(
            "[bench_serve] rep {}/{REPS}: arm A ({sessions} sessions)",
            rep + 1
        );
        let (rate, polls) = run_arm("a", rep, sessions)?;
        arm_a.push(rate);
        poll_secs.extend(polls);
        eprintln!(
            "[bench_serve] rep {}/{REPS}: arm B ({sessions} sessions)",
            rep + 1
        );
        let (rate, polls) = run_arm("b", rep, sessions)?;
        arm_b.push(rate);
        poll_secs.extend(polls);
    }
    let a_sessions_per_s = median(&arm_a).unwrap_or(f64::NAN);
    let b_sessions_per_s = median(&arm_b).unwrap_or(f64::NAN);
    let floor = a_sessions_per_s.min(b_sessions_per_s).max(1e-9);
    let aa_delta_pct = (a_sessions_per_s - b_sessions_per_s).abs() / floor * 100.0;
    let polls = poll_secs.len();
    let p99_poll_ms = percentile_99(poll_secs) * 1000.0;
    let record = BenchRecord {
        bench: "serve",
        sessions,
        workers: WORKERS,
        reps: REPS,
        noise_tolerance_pct: NOISE_TOLERANCE_PCT,
        p99_cap_ms: P99_CAP_MS,
        a_sessions_per_s,
        b_sessions_per_s,
        aa_delta_pct,
        p99_poll_ms,
        polls,
        within_noise: aa_delta_pct <= NOISE_TOLERANCE_PCT,
        p99_within_cap: p99_poll_ms <= P99_CAP_MS,
    };
    let json =
        serde_json::to_string_pretty(&record).map_err(|e| format!("serialize record: {e}"))?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{json}");
    eprintln!("[bench_serve] wrote {}", path.display());
    if !record.within_noise {
        return Err(format!(
            "A/A throughput delta {aa_delta_pct:.1}% exceeds {NOISE_TOLERANCE_PCT}% tolerance"
        ));
    }
    if !record.p99_within_cap {
        return Err(format!(
            "p99 poll latency {p99_poll_ms:.1}ms exceeds {P99_CAP_MS}ms cap"
        ));
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_serve: {e}");
        std::process::exit(1);
    }
}
