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
//!   worker is busy; the p99 over all reps (interpolated, so never below
//!   the nearest-rank value) is gated against an absolute cap that a
//!   mutex-held-too-long dispatch core would blow through.
//!
//! Writes the machine-readable `BENCH_serve.json` at the repo root,
//! prints it to stdout, and exits non-zero when [`ServeRecord::gate`]
//! fails.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_serve [-- --sessions N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use mtm_bench::perf::{self, serve::ServeRecord};
use mtm_serve::{
    Client, Daemon, DaemonConfig, DispatchConfig, Endpoint, Quotas, SessionSpec, SessionState,
};

/// Sessions per arm (override with `--sessions`). The acceptance bar is
/// "thousands of concurrent sessions", so the default exercises 1000.
const SESSIONS: usize = 1000;
/// Worker threads in the dispatch pool.
const WORKERS: usize = 8;
/// Timed repetitions per arm; medians go into the record.
const REPS: usize = 3;

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
    let record = ServeRecord::new(sessions, WORKERS, &arm_a, &arm_b, &poll_secs);
    perf::write_record("serve", &record)?;
    record.gate()
}

fn main() -> ExitCode {
    perf::run_main("serve", run)
}
