//! Deterministic admission and dispatch over the bounded worker pool.
//!
//! One mutex guards the whole scheduling core (slots, queue, counters,
//! the store's journals); a condvar parks idle workers. Sessions execute
//! *outside* the lock — the mutex is only held for state transitions, so
//! poll latency stays flat while thousands of sessions are in flight.
//!
//! **Admission is a pure function of journaled state.** Every submit is
//! decided against the current queue/quota counters and the decision —
//! admit or reject — is appended to the store's admission journal with a
//! monotonic sequence number before the caller learns it. Restart
//! recovery replays that journal in sequence order, so the recovered
//! schedule is exactly the one the original process committed to.
//!
//! **Cancellation is cooperative and journal-safe**: the abort flag stops
//! the engine at the next trial boundary ([`RunnerError::Canceled`]), no
//! `PassDone`/`Done` line is written for interrupted work, and the
//! session's segment remains a valid resume point.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use mtm_obs::JsonlRecorder;
use mtm_runner::engine::RunnerOptions;
use mtm_runner::journal::load_segment;
use mtm_runner::{
    canonical_result_json, run_experiment_journaled, run_experiment_traced, RunnerError,
};
use mtm_stats::pool;

use crate::proto::{Response, SessionState, SessionView};
use crate::spec::SessionSpec;
use crate::store::{AdmitLine, MetaLine, SessionStore};

/// Per-tenant and global admission bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quotas {
    /// Maximum sessions waiting in the queue (backpressure bound —
    /// submits beyond it are rejected, deterministically).
    pub max_queued: usize,
    /// Maximum in-flight (queued + active) sessions per tenant.
    pub per_tenant: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_queued: 4096,
            per_tenant: 4096,
        }
    }
}

/// Dispatcher configuration.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Worker threads executing sessions (each session runs serially
    /// inside itself — parallelism is across sessions).
    pub workers: usize,
    /// Admission bounds.
    pub quotas: Quotas,
    /// Record a per-session obs trace (`trace.jsonl`), spliced across
    /// restarts with the recorder's own torn-tail discipline.
    pub trace: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            workers: 4,
            quotas: Quotas::default(),
            trace: false,
        }
    }
}

/// In-memory state of one session.
struct Slot {
    seq: u64,
    spec: SessionSpec,
    priority: i32,
    state: SessionState,
    user_canceled: bool,
    result: Option<String>,
    error: Option<String>,
    abort: Arc<AtomicBool>,
}

/// Everything the dispatch mutex guards. The store lives *outside* on
/// the [`Dispatcher`]: its journals do file IO, and the lock-region pass
/// (`mtm-check analyze`) holds serve to zero blocking-under-lock sites,
/// so journal appends must not need the core mutex.
struct Core {
    slots: BTreeMap<String, Slot>,
    /// `(-priority, seq, id)` — iteration order is execution order:
    /// highest priority first, admission order within a priority.
    queue: BTreeSet<(i64, u64, String)>,
    active: usize,
    inflight_by_tenant: BTreeMap<String, usize>,
    shutdown: bool,
}

impl Core {
    fn tenant_inc(&mut self, tenant: &str) {
        *self
            .inflight_by_tenant
            .entry(tenant.to_string())
            .or_insert(0) += 1;
    }

    fn tenant_dec(&mut self, tenant: &str) {
        if let Some(n) = self.inflight_by_tenant.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight_by_tenant.remove(tenant);
            }
        }
    }

    fn queue_key(priority: i32, seq: u64, id: &str) -> (i64, u64, String) {
        (-(priority as i64), seq, id.to_string())
    }
}

/// The dispatch core: shared by the daemon's connection handlers and the
/// worker pool.
pub struct Dispatcher {
    core: Mutex<Core>,
    cv: Condvar,
    quotas: Quotas,
    trace: bool,
    /// The session store. Outside the core mutex so journal appends and
    /// segment loads run without holding the scheduling lock; the store
    /// synchronizes its own journals internally.
    store: SessionStore,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Dispatcher {
    /// Recover every admitted session from `store` and start `config.workers`
    /// workers. Unfinished sessions re-enter the queue in admission order
    /// (at their last journaled priority) and resume from their segments.
    pub fn start(
        store: SessionStore,
        config: &DispatchConfig,
    ) -> Result<Arc<Dispatcher>, RunnerError> {
        let recovered = store.recover()?;
        let mut core = Core {
            slots: BTreeMap::new(),
            queue: BTreeSet::new(),
            active: 0,
            inflight_by_tenant: BTreeMap::new(),
            shutdown: false,
        };
        for rec in recovered {
            // Finished wins over canceled: a cancel that raced completion
            // (the engine parked before seeing the flag) has a result,
            // and the result is what the tenant paid for.
            let state = if rec.finished {
                SessionState::Done
            } else if rec.canceled {
                SessionState::Canceled
            } else if rec.failed.is_some() {
                SessionState::Failed
            } else {
                SessionState::Queued
            };
            if state == SessionState::Queued {
                core.queue
                    .insert(Core::queue_key(rec.priority, rec.seq, &rec.session));
                core.tenant_inc(&rec.spec.tenant);
            }
            core.slots.insert(
                rec.session.clone(),
                Slot {
                    seq: rec.seq,
                    spec: rec.spec,
                    priority: rec.priority,
                    state,
                    user_canceled: rec.canceled,
                    // Finished results load lazily on first poll, so
                    // restart cost scales with *unfinished* work.
                    result: None,
                    error: rec.failed,
                    abort: Arc::new(AtomicBool::new(false)),
                },
            );
        }
        let dispatcher = Arc::new(Dispatcher {
            core: Mutex::new(core),
            cv: Condvar::new(),
            quotas: config.quotas,
            trace: config.trace,
            store,
            workers: Mutex::new(Vec::new()),
        });
        let n = config.workers.max(1);
        let mut handles = Vec::with_capacity(n);
        for w in 0..n {
            let me = Arc::clone(&dispatcher);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || me.worker_loop())
                .map_err(|e| RunnerError::Io(format!("spawn worker: {e}")))?;
            handles.push(handle);
        }
        match dispatcher.workers.lock() {
            Ok(mut slot) => *slot = handles,
            Err(poisoned) => *poisoned.into_inner() = handles,
        }
        Ok(dispatcher)
    }

    // mtm-lock: core
    fn lock_core(&self) -> MutexGuard<'_, Core> {
        match self.core.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admit or reject a submission; either way the decision is journaled
    /// before the caller learns it.
    ///
    /// The journal append deliberately happens *under* the core lock:
    /// admission is the commit point, and the seq draw, the journal line
    /// and the queue mutation must be one atomic step or a crash between
    /// them could recover a schedule the original process never chose.
    pub fn submit(&self, spec: &SessionSpec) -> Response {
        if let Err(reason) = spec.validate() {
            return Response::Rejected { reason };
        }
        // mtm-allow: lock -- admission is the commit point: seq draw, journal append and queue mutation must be atomic for crash-exact recovery, so this journal IO stays under `core`
        let mut core = self.lock_core();
        if core.shutdown {
            return Response::Rejected {
                reason: "daemon is shutting down".to_string(),
            };
        }
        let reject = if core.queue.len() >= self.quotas.max_queued {
            Some("queue full (backpressure)".to_string())
        } else {
            let inflight = core
                .inflight_by_tenant
                .get(&spec.tenant)
                .copied()
                .unwrap_or(0);
            if inflight >= self.quotas.per_tenant {
                Some(format!(
                    "tenant '{}' quota exceeded ({} in flight)",
                    spec.tenant, inflight
                ))
            } else {
                None
            }
        };
        let seq = self.store.peek_seq();
        if let Some(reason) = reject {
            let line = AdmitLine::Rejected {
                seq,
                tenant: spec.tenant.clone(),
                reason: reason.clone(),
            };
            if let Err(e) = self.store.journal_admission(&line) {
                return Response::Error {
                    message: format!("journal admission: {e}"),
                };
            }
            return Response::Rejected { reason };
        }
        let session = format!("s{seq}");
        let line = AdmitLine::Admitted {
            seq,
            session: session.clone(),
            spec: spec.clone(),
        };
        if let Err(e) = self
            .store
            .journal_admission(&line)
            .and_then(|_| self.store.create_session(&session, spec))
        {
            return Response::Error {
                message: format!("admit {session}: {e}"),
            };
        }
        core.queue.insert(Core::queue_key(0, seq, &session));
        core.tenant_inc(&spec.tenant);
        core.slots.insert(
            session.clone(),
            Slot {
                seq,
                spec: spec.clone(),
                priority: 0,
                state: SessionState::Queued,
                user_canceled: false,
                result: None,
                error: None,
                abort: Arc::new(AtomicBool::new(false)),
            },
        );
        drop(core);
        self.cv.notify_all();
        Response::Submitted { session }
    }

    /// Current state of a session (loading a recovered result from its
    /// segment on first ask). The segment load runs *outside* the core
    /// lock — a long segment must never stall other tenants' polls.
    pub fn poll(&self, session: &str) -> Response {
        let needs_load = {
            let core = self.lock_core();
            let Some(slot) = core.slots.get(session) else {
                return Response::Error {
                    message: format!("unknown session '{session}'"),
                };
            };
            slot.state == SessionState::Done && slot.result.is_none()
        };
        if needs_load {
            let path = self.store.segment_path(session);
            let loaded = match load_segment(&path) {
                Ok(Some(data)) => data.done.map(|r| canonical_result_json(&r)),
                Ok(None) => None,
                Err(e) => {
                    return Response::Error {
                        message: format!("load {session} result: {e}"),
                    }
                }
            };
            let mut requeued = false;
            {
                let mut core = self.lock_core();
                if let Some(slot) = core.slots.get_mut(session) {
                    // Re-check under the lock: another poll may have
                    // installed the result (or requeued) while we read.
                    if slot.state == SessionState::Done && slot.result.is_none() {
                        match loaded {
                            Some(json) => slot.result = Some(json),
                            // Meta says finished but the segment lost its
                            // Done line (torn after the fact): fall back
                            // to re-running by returning it to the queue.
                            None => {
                                slot.state = SessionState::Queued;
                                let key = Core::queue_key(slot.priority, slot.seq, session);
                                let tenant = slot.spec.tenant.clone();
                                core.queue.insert(key);
                                core.tenant_inc(&tenant);
                                requeued = true;
                            }
                        }
                    }
                }
            }
            if requeued {
                self.cv.notify_all();
            }
        }
        let core = self.lock_core();
        let Some(slot) = core.slots.get(session) else {
            return Response::Error {
                message: format!("unknown session '{session}'"),
            };
        };
        Response::Status(SessionView {
            session: session.to_string(),
            tenant: slot.spec.tenant.clone(),
            state: slot.state.clone(),
            priority: slot.priority,
            result: slot.result.clone(),
            error: slot.error.clone(),
        })
    }

    /// Change a queued session's priority (no effect on results, only on
    /// drain order). Journaled so restarts keep the steered order.
    pub fn steer(&self, session: &str, priority: i32) -> Response {
        {
            let mut core = self.lock_core();
            let Some(slot) = core.slots.get(session) else {
                return Response::Error {
                    message: format!("unknown session '{session}'"),
                };
            };
            // A parked session has no drain order left to steer; skip the
            // journal too, so the worker stays the only writer of a
            // terminal session's meta.
            if matches!(
                slot.state,
                SessionState::Done | SessionState::Canceled | SessionState::Failed
            ) {
                return Response::Ack;
            }
            let old_key = Core::queue_key(slot.priority, slot.seq, session);
            let new_key = Core::queue_key(priority, slot.seq, session);
            if let Some(slot) = core.slots.get_mut(session) {
                slot.priority = priority;
            }
            if core.queue.remove(&old_key) {
                core.queue.insert(new_key);
            }
        }
        // Journaled after release: the new priority is already live in
        // the scheduler, and a crash before this append merely resumes at
        // the old priority — a scheduling hint lost, never a result.
        if let Err(e) = self
            .store
            .meta_append(session, &MetaLine::Priority { priority })
        {
            return Response::Error {
                message: format!("steer {session}: {e}"),
            };
        }
        Response::Ack
    }

    /// Cancel a session: a queued one leaves the queue immediately, an
    /// active one stops at its next trial boundary. Idempotent.
    pub fn cancel(&self, session: &str) -> Response {
        {
            let mut core = self.lock_core();
            let Some(slot) = core.slots.get(session) else {
                return Response::Error {
                    message: format!("unknown session '{session}'"),
                };
            };
            match slot.state {
                SessionState::Queued => {
                    let key = Core::queue_key(slot.priority, slot.seq, session);
                    let tenant = slot.spec.tenant.clone();
                    core.queue.remove(&key);
                    core.tenant_dec(&tenant);
                    if let Some(slot) = core.slots.get_mut(session) {
                        slot.state = SessionState::Canceled;
                        slot.user_canceled = true;
                    }
                }
                SessionState::Active => {
                    if let Some(slot) = core.slots.get_mut(session) {
                        slot.user_canceled = true;
                        slot.abort.store(true, Ordering::Relaxed);
                    }
                }
                // Already parked — nothing to do.
                SessionState::Done | SessionState::Canceled | SessionState::Failed => {
                    return Response::Ack
                }
            }
        }
        // Journaled after release but *before* the Ack: when the caller
        // sees Ack the Canceled line is durable (or a concurrent cancel
        // of the same session is writing the identical line — the append
        // is idempotent in effect, and recovery treats one line and two
        // the same).
        if let Err(e) = self.store.meta_append(session, &MetaLine::Canceled) {
            return Response::Error {
                message: format!("cancel {session}: {e}"),
            };
        }
        Response::Ack
    }

    /// Compact a parked session's segment. Active sessions are refused —
    /// the engine holds the file open.
    ///
    /// The rewrite deliberately runs *under* the core lock: compaction
    /// must exclude activation, or a worker could open the segment
    /// mid-rewrite. It is an admin verb off the poll path, so the stall
    /// is priced in.
    pub fn snapshot(&self, session: &str) -> Response {
        // mtm-allow: lock -- compaction must exclude activation of a queued session (a worker must not open the segment mid-rewrite); admin-only verb, off the poll path
        let core = self.lock_core();
        let Some(slot) = core.slots.get(session) else {
            return Response::Error {
                message: format!("unknown session '{session}'"),
            };
        };
        if slot.state == SessionState::Active {
            return Response::Error {
                message: format!("session '{session}' is active; snapshot when it parks"),
            };
        }
        match self.store.compact(session) {
            Ok(stats) => Response::Snapshot(stats),
            Err(e) => Response::Error {
                message: format!("compact {session}: {e}"),
            },
        }
    }

    /// Stop: abort active sessions at their next trial boundary, wake and
    /// join every worker. Queued and interrupted sessions stay journaled
    /// and resume on the next start.
    pub fn shutdown(&self) {
        {
            let mut core = self.lock_core();
            core.shutdown = true;
            for slot in core.slots.values() {
                if slot.state == SessionState::Active {
                    slot.abort.store(true, Ordering::Relaxed);
                }
            }
        }
        self.cv.notify_all();
        let handles = {
            let mut workers = match self.workers.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *workers)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Block until no session is queued or active (tests, soak).
    pub fn wait_idle(&self) {
        let mut core = self.lock_core();
        while !(core.shutdown || (core.queue.is_empty() && core.active == 0)) {
            core = match self.cv.wait(core) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Snapshot of queue depth and active count (status lines, bench).
    pub fn load_counts(&self) -> (usize, usize) {
        let core = self.lock_core();
        (core.queue.len(), core.active)
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let (session, spec, abort) = {
                let mut core = self.lock_core();
                loop {
                    if core.shutdown {
                        return;
                    }
                    let next = core.queue.iter().next().cloned();
                    if let Some(key) = next {
                        core.queue.remove(&key);
                        let (_, _, id) = key;
                        core.active += 1;
                        let Some(slot) = core.slots.get_mut(&id) else {
                            core.active = core.active.saturating_sub(1);
                            continue;
                        };
                        slot.state = SessionState::Active;
                        break (id, slot.spec.clone(), Arc::clone(&slot.abort));
                    }
                    core = match self.cv.wait(core) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };

            let outcome = {
                // The session occupies this worker's core, so a fit
                // inside it borrows only cores no other session holds.
                let _core = pool::claim();
                self.run_session(&session, &spec, abort)
            };

            // Decide the terminal transition under the lock; journal it
            // after release. Only the owning worker writes a session's
            // terminal meta line, so the append races nothing. Crash
            // window: the slot shows Done before Finished is durable —
            // recovery re-queues the session and the deterministic
            // re-run journals the same result.
            let meta_line = {
                let mut core = self.lock_core();
                core.active = core.active.saturating_sub(1);
                let user_canceled = core
                    .slots
                    .get(&session)
                    .is_some_and(|slot| slot.user_canceled);
                match outcome {
                    Ok(result_json) => {
                        if let Some(slot) = core.slots.get_mut(&session) {
                            slot.state = SessionState::Done;
                            slot.result = Some(result_json);
                        }
                        core.tenant_dec(&spec.tenant);
                        Some(MetaLine::Finished)
                    }
                    Err(RunnerError::Canceled) => {
                        if user_canceled {
                            if let Some(slot) = core.slots.get_mut(&session) {
                                slot.state = SessionState::Canceled;
                            }
                            core.tenant_dec(&spec.tenant);
                            // The Canceled meta line was written by cancel().
                        } else if let Some(slot) = core.slots.get_mut(&session) {
                            // Shutdown abort: the session is still live work.
                            // Leave it Queued on the slot; recovery re-queues
                            // it from the journals on the next start.
                            slot.state = SessionState::Queued;
                        }
                        None
                    }
                    Err(e) => {
                        let message = e.to_string();
                        if let Some(slot) = core.slots.get_mut(&session) {
                            slot.state = SessionState::Failed;
                            slot.error = Some(message.clone());
                        }
                        core.tenant_dec(&spec.tenant);
                        Some(MetaLine::Failed { message })
                    }
                }
            };
            self.cv.notify_all();
            if let Some(line) = meta_line {
                if let Err(e) = self.store.meta_append(&session, &line) {
                    eprintln!("[serve] {session}: journal outcome: {e}");
                }
            }
        }
    }

    /// Execute one session end to end (no dispatch lock held). Always
    /// `resume: true`: a fresh segment is indistinguishable from a clean
    /// start, and a recovered one replays bitwise.
    fn run_session(
        &self,
        session: &str,
        spec: &SessionSpec,
        abort: Arc<AtomicBool>,
    ) -> Result<String, RunnerError> {
        let segment = self.store.segment_path(session);
        let trace_path = self.store.trace_path(session);
        let objective = spec.objective();
        let make = spec.strategy_factory();
        let opts = spec.run_options();
        let ropts = RunnerOptions {
            abort: Some(abort),
            ..RunnerOptions::serial()
        };
        let exp_id = spec.exp_id(session);
        let outcome = if self.trace {
            // Per-session trace, spliced across restarts: reopen after the
            // longest valid prefix, exactly like the segment itself.
            let mut rec = JsonlRecorder::resume(&trace_path, &exp_id, opts.seed)
                .map_err(|e| RunnerError::Io(format!("trace {session}: {e}")))?;
            let outcome = run_experiment_traced(
                &exp_id,
                &make,
                &objective,
                &opts,
                &ropts,
                Some(&segment),
                true,
                &mut rec,
            )?;
            rec.finish()
                .map_err(|e| RunnerError::Io(format!("trace {session}: {e}")))?;
            outcome
        } else {
            run_experiment_journaled(
                &exp_id,
                &make,
                &objective,
                &opts,
                &ropts,
                Some(&segment),
                true,
            )?
        };
        Ok(canonical_result_json(&outcome.result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mtm-serve-dispatch-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The race surface TSan instruments: many client threads hammering
    /// submit/poll/steer/cancel while the worker pool drains sessions.
    /// Nothing here asserts timing — only that every session reaches a
    /// terminal state and the counters return to zero.
    #[test]
    fn concurrent_clients_and_workers_race_cleanly() {
        let root = tmproot("race");
        let store = SessionStore::open(&root).unwrap();
        let dispatcher = Dispatcher::start(
            store,
            &DispatchConfig {
                workers: 4,
                quotas: Quotas::default(),
                trace: false,
            },
        )
        .unwrap();

        let mut clients = Vec::new();
        for t in 0..4u64 {
            let me = Arc::clone(&dispatcher);
            clients.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..4u64 {
                    let spec = SessionSpec::smoke(&format!("tenant-{t}"), "pla", t * 100 + i);
                    match me.submit(&spec) {
                        Response::Submitted { session } => ids.push(session),
                        other => panic!("submit: {other:?}"),
                    }
                }
                // Interleave reads and steers with the workers' writes.
                for (i, id) in ids.iter().enumerate() {
                    let _ = me.poll(id);
                    let _ = me.steer(id, i as i32);
                }
                // Cancel one queued-or-active session per client thread.
                if let Some(id) = ids.first() {
                    assert!(matches!(me.cancel(id), Response::Ack));
                }
                ids
            }));
        }
        let all_ids: Vec<String> = clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        dispatcher.wait_idle();
        for id in &all_ids {
            let Response::Status(view) = dispatcher.poll(id) else {
                panic!("poll {id} failed");
            };
            assert!(
                matches!(view.state, SessionState::Done | SessionState::Canceled),
                "{id} ended {:?}",
                view.state
            );
        }
        let (queued, active) = dispatcher.load_counts();
        assert_eq!((queued, active), (0, 0));
        dispatcher.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A thread dying mid-critical-section poisons the core mutex; the
    /// daemon must keep serving. `lock_core` (and every other core/cv
    /// access) recovers the guard via `into_inner`, which is sound
    /// because the panic ratchet holds serve's library code panic-free —
    /// poison can only come from test or foreign frames, so the guarded
    /// state was not left half-mutated by our own code. The journaled
    /// store is the backstop if that invariant is ever broken: a restart
    /// recovers the exact committed schedule. Policy in DESIGN.md §15.
    #[test]
    fn daemon_survives_a_poisoned_core_mutex() {
        let root = tmproot("poison");
        let store = SessionStore::open(&root).expect("open store");
        let dispatcher = Dispatcher::start(
            store,
            &DispatchConfig {
                workers: 2,
                quotas: Quotas::default(),
                trace: false,
            },
        )
        .expect("start dispatcher");

        // Finish one session first so there is real state to survive.
        let spec = SessionSpec::smoke("acme", "pla", 7);
        let Response::Submitted { session } = dispatcher.submit(&spec) else {
            panic!("submit before poisoning");
        };
        dispatcher.wait_idle();

        // Kill a thread while it holds the dispatch lock.
        let me = Arc::clone(&dispatcher);
        let t = std::thread::spawn(move || {
            let _guard = me.core.lock().expect("not yet poisoned");
            panic!("simulated worker death while holding the dispatch lock");
        });
        assert!(t.join().is_err(), "the poisoning thread must panic");
        assert!(dispatcher.core.is_poisoned(), "core must be poisoned");

        // Every verb still works: poll sees the finished session, new
        // submissions are admitted, executed and polled to Done.
        let Response::Status(view) = dispatcher.poll(&session) else {
            panic!("poll after poisoning");
        };
        assert!(matches!(view.state, SessionState::Done), "{:?}", view.state);
        let spec2 = SessionSpec::smoke("acme", "pla", 8);
        let Response::Submitted { session: s2 } = dispatcher.submit(&spec2) else {
            panic!("submit after poisoning");
        };
        assert!(matches!(dispatcher.cancel(&s2), Response::Ack));
        dispatcher.wait_idle();
        let Response::Status(view) = dispatcher.poll(&s2) else {
            panic!("poll canceled session after poisoning");
        };
        assert!(
            matches!(view.state, SessionState::Done | SessionState::Canceled),
            "{:?}",
            view.state
        );
        let (queued, active) = dispatcher.load_counts();
        assert_eq!((queued, active), (0, 0));
        dispatcher.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
