//! End-to-end service tests: the daemon's determinism contract.
//!
//! The acceptance bar (ISSUE PR 7): sessions pushed through
//! submit/poll/complete are bitwise-identical to the batch engine on the
//! same specs; a killed daemon restarted over the same store recovers
//! every in-flight session and finishes it identically; compaction bounds
//! restart replay cost by the *incomplete* work, independent of session
//! length.

use std::fs;
use std::path::{Path, PathBuf};

use mtm_runner::engine::RunnerOptions;
use mtm_runner::journal::load_segment;
use mtm_runner::{canonical_result_json, run_experiment_journaled};
use mtm_serve::daemon::{Daemon, DaemonConfig, Endpoint};
use mtm_serve::dispatch::{DispatchConfig, Quotas};
use mtm_serve::proto::{Request, Response, SessionState};
use mtm_serve::spec::SessionSpec;
use mtm_serve::Client;

fn tmproot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mtm-serve-e2e")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn daemon_at(root: &Path, workers: usize) -> Daemon {
    Daemon::start(DaemonConfig {
        root: root.to_path_buf(),
        endpoint: Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
        dispatch: DispatchConfig {
            workers,
            quotas: Quotas {
                max_queued: 4096,
                per_tenant: 4096,
            },
            trace: false,
        },
    })
    .unwrap()
}

/// What the batch engine produces for `spec` — the reference the service
/// must match bitwise. In-memory, serial, no journal.
fn batch_reference(spec: &SessionSpec, session: &str) -> String {
    let make = spec.strategy_factory();
    let outcome = run_experiment_journaled(
        &spec.exp_id(session),
        &make,
        &spec.objective(),
        &spec.run_options(),
        &RunnerOptions::serial(),
        None,
        false,
    )
    .unwrap();
    canonical_result_json(&outcome.result)
}

fn mixed_specs(n: usize) -> Vec<SessionSpec> {
    let strategies = ["pla", "bo", "ipla", "ibo"];
    (0..n)
        .map(|i| {
            let strategy = strategies[i % strategies.len()];
            let tenant = format!("tenant-{}", i % 5);
            SessionSpec::smoke(&tenant, strategy, 0x2015 + i as u64)
        })
        .collect()
}

#[test]
fn served_sessions_match_the_batch_engine_bitwise() {
    let root = tmproot("bitwise");
    let daemon = daemon_at(&root, 4);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let specs = mixed_specs(12);
    let ids: Vec<String> = specs.iter().map(|s| client.submit(s).unwrap()).collect();
    for (spec, id) in specs.iter().zip(&ids) {
        let view = client.wait(id, 10, 30_000).unwrap();
        assert_eq!(view.state, SessionState::Done, "{id}");
        assert_eq!(
            view.result.as_deref().unwrap(),
            batch_reference(spec, id),
            "service result for {id} must equal the batch engine's"
        );
    }
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn kill_and_restart_recovers_fifty_sessions_bitwise() {
    let root = tmproot("restart");
    let specs = mixed_specs(50);

    // Phase 1: a daemon with a single slow worker takes the sessions in,
    // finishes a few, and is stopped with most of the fleet in flight.
    let daemon = daemon_at(&root, 1);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let ids: Vec<String> = specs.iter().map(|s| client.submit(s).unwrap()).collect();
    // Let at least one session land so the recovery set mixes finished,
    // active and queued states.
    client.wait(&ids[0], 10, 30_000).unwrap();
    daemon.shutdown(); // aborts the active session at a trial boundary

    // Simulate kill -9 debris: tear one journal tail mid-record and
    // append garbage to another — the longest-valid-prefix loaders must
    // absorb both.
    let store = mtm_serve::SessionStore::open(&root).unwrap();
    let torn = store.segment_path(&ids[1]);
    if let Ok(bytes) = fs::read(&torn) {
        if bytes.len() > 9 {
            fs::write(&torn, &bytes[..bytes.len() - 9]).unwrap();
        }
    }
    let garbled = store.segment_path(&ids[2]);
    if let Ok(mut bytes) = fs::read(&garbled) {
        bytes.extend_from_slice(b"{\"Trial\":{\"pass\":0,\"st\xC3");
        fs::write(&garbled, &bytes).unwrap();
    }
    drop(store);

    // Phase 2: a fresh daemon over the same root recovers everything.
    let daemon = daemon_at(&root, 4);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    for (spec, id) in specs.iter().zip(&ids) {
        let view = client.wait(id, 10, 60_000).unwrap();
        assert_eq!(view.state, SessionState::Done, "{id} after restart");
        assert_eq!(
            view.result.as_deref().unwrap(),
            batch_reference(spec, id),
            "recovered result for {id} must equal the batch engine's"
        );
    }
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn compaction_bounds_restart_cost_independent_of_session_length() {
    let root = tmproot("compact");
    let daemon = daemon_at(&root, 2);
    let mut client = Client::connect(daemon.endpoint()).unwrap();

    // A short session and one ~10x its trial count: smoke-scale `bo`
    // journals 1 pass x 6 steps; `bo180` journals 12-step passes — at
    // fast scale a `bo` session is 2 passes x 30 steps = 60 trials.
    let short = SessionSpec::smoke("t", "bo", 7);
    let long = SessionSpec {
        scale: mtm_runner::Scale::Fast,
        ..SessionSpec::smoke("t", "bo", 7)
    };
    let short_id = client.submit(&short).unwrap();
    let long_id = client.submit(&long).unwrap();
    client.wait(&short_id, 10, 60_000).unwrap();
    client.wait(&long_id, 10, 60_000).unwrap();

    let snap = |client: &mut Client, id: &str| match client
        .call(Request::Snapshot {
            session: id.to_string(),
        })
        .unwrap()
    {
        Response::Snapshot(stats) => stats,
        other => panic!("snapshot: {other:?}"),
    };
    let s = snap(&mut client, &short_id);
    let l = snap(&mut client, &long_id);

    // Uncompacted record counts scale with session length …
    let short_opts = short.run_options();
    let long_opts = long.run_options();
    assert!(
        l.records_before > 9 * s.records_before / 2,
        "long session should journal ~10x the short one's trials \
         (short {}, long {})",
        s.records_before,
        l.records_before
    );
    // … compacted counts are exactly header + passes + confirms + done:
    // independent of how many steps each pass ran.
    assert_eq!(
        s.records_after,
        2 + short_opts.passes + short_opts.confirm_reps
    );
    assert_eq!(
        l.records_after,
        2 + long_opts.passes + long_opts.confirm_reps
    );
    assert_eq!(l.passes_compacted, long_opts.passes);

    // Restart replay cost proxy: the segment now holds zero trial rows,
    // so resume replays only pass summaries + confirms.
    let store = mtm_serve::SessionStore::open(&root).unwrap();
    let data = load_segment(&store.segment_path(&long_id))
        .unwrap()
        .unwrap();
    assert_eq!(data.trials.len(), 0, "compaction dropped all trial rows");
    assert_eq!(data.passes.len(), long_opts.passes);
    assert!(data.done.is_some(), "the result line survives compaction");

    // And the compacted segment is still a valid resume point: tear off
    // its Done line (a crash after compaction), restart, and the session
    // must finish bitwise-identically, replaying only the constant-size
    // remainder.
    let seg = store.segment_path(&long_id);
    {
        let bytes = fs::read(&seg).unwrap();
        // Tear the final (Done) line: cut three bytes into it so the tail
        // is a torn record, the way a crash mid-flush leaves it.
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        fs::write(&seg, &bytes[..last_line_start + 3]).unwrap();
    }
    drop(store);
    daemon.shutdown();

    let daemon = daemon_at(&root, 2);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let view = client.wait(&long_id, 10, 60_000).unwrap();
    assert_eq!(view.state, SessionState::Done);
    assert_eq!(
        view.result.as_deref().unwrap(),
        batch_reference(&long, &long_id),
        "post-compaction resume must reproduce the batch result"
    );
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unix_socket_serves_the_full_verb_set() {
    let root = tmproot("unix");
    let sock = std::env::temp_dir().join(format!("mtm-serve-{}.sock", std::process::id()));
    let _ = fs::remove_file(&sock);
    let daemon = Daemon::start(DaemonConfig {
        root: root.clone(),
        endpoint: Endpoint::Unix(sock.clone()),
        dispatch: DispatchConfig::default(),
    })
    .unwrap();
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let spec = SessionSpec::smoke("sock", "pla", 3);
    let id = client.submit(&spec).unwrap();
    let view = client.wait(&id, 10, 30_000).unwrap();
    assert_eq!(view.state, SessionState::Done);
    assert_eq!(view.result.as_deref().unwrap(), batch_reference(&spec, &id));
    // Steer and cancel are acknowledged even for parked sessions.
    assert_eq!(
        client
            .call(Request::Steer {
                session: id.clone(),
                priority: 3
            })
            .unwrap(),
        Response::Ack
    );
    assert_eq!(
        client.call(Request::Cancel { session: id }).unwrap(),
        Response::Ack
    );
    // Shutdown over the wire stops the daemon.
    assert_eq!(
        client.call(Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    daemon.wait();
    let _ = fs::remove_file(&sock);
    let _ = fs::remove_dir_all(&root);
}

/// Poll until the session reports `Active` (bounded).
fn wait_active(client: &mut Client, id: &str) {
    for _ in 0..30_000 {
        let view = client.poll(id).unwrap();
        if view.state == SessionState::Active {
            return;
        }
        assert_eq!(view.state, SessionState::Queued, "{id} parked early");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("{id} never became active");
}

/// A session slow enough (fast-scale, extended BO pass) to hold the one
/// worker busy while the test probes queue behavior around it.
fn blocker_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        scale: mtm_runner::Scale::Fast,
        ..SessionSpec::smoke("busy", "bo180", seed)
    }
}

#[test]
fn quotas_reject_deterministically_and_are_journaled() {
    let root = tmproot("quota");
    let daemon = Daemon::start(DaemonConfig {
        root: root.clone(),
        endpoint: Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
        dispatch: DispatchConfig {
            workers: 1,
            quotas: Quotas {
                max_queued: 3,
                per_tenant: 2,
            },
            trace: false,
        },
    })
    .unwrap();
    let mut client = Client::connect(daemon.endpoint()).unwrap();

    // Pin the single worker so subsequent submissions stay queued and
    // the quota checks are deterministic.
    let blocker = client.submit(&blocker_spec(0)).unwrap();
    wait_active(&mut client, &blocker);

    // Per-tenant quota: the third in-flight submission from one tenant
    // is refused.
    let a1 = client.submit(&SessionSpec::smoke("acme", "pla", 1));
    let a2 = client.submit(&SessionSpec::smoke("acme", "pla", 2));
    let a3 = client.submit(&SessionSpec::smoke("acme", "pla", 3));
    assert!(a1.is_ok() && a2.is_ok());
    let reason = a3.unwrap_err();
    assert!(reason.contains("quota"), "got: {reason}");

    // Backpressure: the queue holds a1, a2 — one more fills it, the next
    // is rejected.
    let c1 = client.submit(&SessionSpec::smoke("carol", "pla", 4));
    let c2 = client.submit(&SessionSpec::smoke("carol", "pla", 5));
    assert!(c1.is_ok());
    let reason = c2.unwrap_err();
    assert!(reason.contains("queue full"), "got: {reason}");

    // Invalid specs are rejected before touching admission state.
    let bad = client.submit(&SessionSpec::smoke("acme", "warp", 6));
    assert!(bad.unwrap_err().contains("unknown strategy"));

    daemon.shutdown();

    // The decisions — including both rejections — are in the admission
    // journal, so a restart reconstructs the same quota state.
    let store = mtm_serve::SessionStore::open(&root).unwrap();
    let recovered = store.recover().unwrap();
    assert_eq!(recovered.len(), 4, "blocker + a1 + a2 + c1 admitted");
    assert_eq!(store.peek_seq(), 6, "rejections consumed seqs too");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cancel_parks_a_session_and_its_journal_stays_resumable() {
    let root = tmproot("cancel");
    // One worker, kept busy by a slow session, so the cancel target is
    // still queued when the cancel lands.
    let daemon = daemon_at(&root, 1);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let target = SessionSpec::smoke("t", "bo", 2);
    let blocker_id = client.submit(&blocker_spec(1)).unwrap();
    wait_active(&mut client, &blocker_id);
    let target_id = client.submit(&target).unwrap();
    assert_eq!(
        client
            .call(Request::Cancel {
                session: target_id.clone()
            })
            .unwrap(),
        Response::Ack
    );
    let view = client.wait(&target_id, 10, 30_000).unwrap();
    assert_eq!(view.state, SessionState::Canceled);
    daemon.shutdown();

    // Restart: the canceled session stays canceled (no zombie re-runs).
    let daemon = daemon_at(&root, 2);
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let view = client.poll(&target_id).unwrap();
    assert_eq!(view.state, SessionState::Canceled);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}
