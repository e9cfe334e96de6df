//! The `serve-fleet` workload: an `mtm-serve serve` daemon in its own
//! process, driven over its socket by this process with two client
//! threads on two connections.
//!
//! Sessions are smoke-scale specs over 8 tenants and the 7 strategies
//! other than `bo180`. The run has four parts: an untimed warm-up round,
//! daemon restarts on that store (`setup_s`), an open-loop phase with
//! seeded Poisson arrivals, and a back-to-back burst. Open-loop latency
//! runs from each session's due time, so a stalled daemon shows as
//! queueing. Each client polls only its oldest unfinished session, so
//! poll load does not grow with the backlog. Every served result must be
//! byte-equal to the same spec run in this process.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mtm_runner::canonical_result_json;
use mtm_serve::daemon::Endpoint;
use mtm_serve::proto::{Request, Response, SessionState};
use mtm_serve::{Client, SessionSpec};
use mtm_topogen::make_condition;

use crate::calib::Calibration;
use crate::layers::{self, Plan};
use crate::meta::{cpu_seconds, fs_type};
use crate::report::Report;
use crate::stats::{mean, median, tail};
use crate::{derive_seed, Args, Rng};

const TENANTS: usize = 8;
const STRATEGIES: [&str; 7] = ["pla", "bo", "ipla", "ibo", "random", "tpe", "hyperband"];
/// Daemon worker threads (`--workers`).
const WORKERS: usize = 2;
/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Open-loop arrival rate, sessions per second.
const OPEN_RATE: f64 = 1000.0;
/// Share of the run length spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Burst sessions per second of run length.
const BURST_PER_S: f64 = 200.0;
/// Length of the serve pass another workload's traced run makes.
const SIDE_PHASE_S: f64 = 4.0;
/// Daemon restarts timed for `setup_s`.
const RESTARTS: usize = 5;
/// Pause between polls of a session that is not done yet.
const POLL_INTERVAL: Duration = Duration::from_micros(200);
/// How long a client waits for its last session after its last submit.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Seconds since `t0`.
fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Sleep until `t0 + at` seconds (no-op when already past).
fn sleep_until(t0: Instant, at: f64) {
    let left = at - secs(t0);
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left));
    }
}

/// What a poll told the generator.
#[derive(Debug, Clone, PartialEq)]
pub enum Polled {
    /// Not finished; `active` when a worker has it.
    Waiting {
        /// A worker is executing it.
        active: bool,
    },
    /// Finished with this result.
    Done(Option<String>),
    /// Canceled or failed.
    Ended(String),
}

/// The system under test, as the load generator sees it.
pub trait Service {
    /// Submit spec number `spec`; returns the session id.
    fn submit(&mut self, spec: usize) -> Result<String, String>;
    /// Poll one session.
    fn poll(&mut self, session: &str) -> Result<Polled, String>;
}

/// One session as the generator saw it; times are seconds from the phase
/// start.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    /// Session id.
    pub id: String,
    /// Index into the spec pool.
    pub spec: usize,
    /// When it was due to be submitted.
    pub due: f64,
    /// When the submit was sent.
    pub sent: f64,
    /// When the submit was acknowledged.
    pub acked: f64,
    /// First poll that saw it active or done.
    pub started: Option<f64>,
    /// First poll that saw it active.
    pub active: Option<f64>,
    /// Poll that saw it done.
    pub done: Option<f64>,
}

/// What one client thread observed in one phase.
#[derive(Debug, Default)]
pub struct Drive {
    /// Sessions seen to completion, in completion order.
    pub sessions: Vec<Seen>,
    /// Poll round trips, ms.
    pub poll_ms: Vec<f64>,
    /// Failed submits, failed sessions, wrong results, timeouts.
    pub errors: Vec<String>,
}

/// Submit `arrivals` (`(due, spec)`, due in seconds from `t0`, ascending)
/// on schedule whatever the service does, and poll the oldest unfinished
/// session in between. `check` vets each finished result.
pub fn drive<S: Service>(
    svc: &mut S,
    arrivals: &[(f64, usize)],
    t0: Instant,
    check: &dyn Fn(usize, &str) -> bool,
) -> Drive {
    let mut out = Drive::default();
    let mut pending: VecDeque<Seen> = VecDeque::new();
    let mut next = 0;
    let last_due = arrivals.last().map_or(0.0, |a| a.0);
    loop {
        let now = secs(t0);
        if let Some(&(due, spec)) = arrivals.get(next) {
            if due <= now {
                next += 1;
                let sent = secs(t0);
                match svc.submit(spec) {
                    Ok(id) => pending.push_back(Seen {
                        id,
                        spec,
                        due,
                        sent,
                        acked: secs(t0),
                        ..Seen::default()
                    }),
                    Err(e) => out.errors.push(format!("submit: {e}")),
                }
                continue;
            }
        }
        let next_due = arrivals.get(next).map_or(f64::INFINITY, |a| a.0);
        let Some(oldest) = pending.front_mut() else {
            if next_due.is_finite() {
                sleep_until(t0, next_due);
                continue;
            }
            break;
        };
        if now > last_due + DRAIN_TIMEOUT.as_secs_f64() {
            for seen in pending.drain(..) {
                out.errors.push(format!("session {} timed out", seen.id));
            }
            break;
        }
        let asked = secs(t0);
        let polled = svc.poll(&oldest.id);
        let answered = secs(t0);
        out.poll_ms.push((answered - asked) * 1e3);
        match polled {
            Ok(Polled::Waiting { active }) => {
                if active {
                    oldest.started.get_or_insert(answered);
                    oldest.active.get_or_insert(answered);
                }
                sleep_until(t0, (answered + POLL_INTERVAL.as_secs_f64()).min(next_due));
            }
            Ok(Polled::Done(result)) => {
                oldest.started.get_or_insert(answered);
                oldest.done = Some(answered);
                if !result.is_some_and(|r| check(oldest.spec, &r)) {
                    out.errors
                        .push(format!("session {} served a wrong result", oldest.id));
                }
                out.sessions.extend(pending.pop_front());
            }
            Ok(Polled::Ended(state)) => {
                out.errors
                    .push(format!("session {} ended {state}", oldest.id));
                pending.pop_front();
            }
            Err(e) => {
                out.errors.push(format!("poll {}: {e}", oldest.id));
                pending.pop_front();
            }
        }
    }
    out
}

/// A protocol client over one connection.
struct Wire<'a> {
    client: Client,
    specs: &'a [SessionSpec],
}

impl Service for Wire<'_> {
    fn submit(&mut self, spec: usize) -> Result<String, String> {
        self.client.submit(&self.specs[spec])
    }

    fn poll(&mut self, session: &str) -> Result<Polled, String> {
        let view = self.client.poll(session)?;
        Ok(match view.state {
            SessionState::Queued => Polled::Waiting { active: false },
            SessionState::Active => Polled::Waiting { active: true },
            SessionState::Done => Polled::Done(view.result),
            other => Polled::Ended(format!("{other:?} {}", view.error.unwrap_or_default())),
        })
    }
}

/// Split `arrivals` round-robin over the client threads and drive them
/// against the daemon at `endpoint`; returns every thread's observations
/// merged.
fn drive_clients(
    endpoint: &Endpoint,
    specs: &[SessionSpec],
    arrivals: &[(f64, usize)],
    check: &(dyn Fn(usize, &str) -> bool + Sync),
) -> Drive {
    let t0 = Instant::now();
    let results: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let mine: Vec<(f64, usize)> =
                    arrivals.iter().copied().skip(k).step_by(CLIENTS).collect();
                scope.spawn(move || match Client::connect(endpoint) {
                    Ok(client) => drive(&mut Wire { client, specs }, &mine, t0, check),
                    Err(e) => Drive {
                        errors: vec![format!("connect: {e}")],
                        ..Drive::default()
                    },
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Drive {
                    errors: vec!["client thread panicked".to_string()],
                    ..Drive::default()
                })
            })
            .collect()
    });
    let mut all = Drive::default();
    for d in results {
        all.sessions.extend(d.sessions);
        all.poll_ms.extend(d.poll_ms);
        all.errors.extend(d.errors);
    }
    all
}

/// The daemon process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    endpoint: Endpoint,
}

impl Daemon {
    /// Start `mtm-serve serve` on `root` and wait for it to listen.
    fn spawn(bin: &Path, root: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--root")
            .arg(root)
            .args(["--listen", "tcp:127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_string());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            endpoint: Endpoint::Tcp(String::new()),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("mtm-serve: listening on ")
            .ok_or_else(|| format!("unexpected daemon banner '{}'", line.trim()))?;
        daemon.endpoint = Endpoint::parse(addr)?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to shut down and wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.endpoint).and_then(|mut c| c.call(Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("daemon did not stop".to_string()),
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        match asked {
            Ok(Response::ShuttingDown) => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The session specs every phase draws from.
fn spec_pool(seed: u64) -> Vec<SessionSpec> {
    let mut specs = Vec::with_capacity(TENANTS * STRATEGIES.len());
    for t in 0..TENANTS {
        for strategy in STRATEGIES {
            let k = specs.len() as u64;
            specs.push(SessionSpec::smoke(
                &format!("tenant-{t}"),
                strategy,
                derive_seed(seed, k),
            ));
        }
    }
    specs
}

fn plan_of(spec: &SessionSpec) -> Plan {
    Plan {
        exp_id: spec.exp_id("reference"),
        objective: std::sync::Arc::new(spec.objective()),
        opts: spec.run_options(),
        make: Box::new(spec.strategy_factory()),
    }
}

/// A spec's result run in this process, the oracle for served results.
struct Reference {
    canonical: String,
    trials: u64,
    tuned: f64,
}

/// Files and bytes under `dir`.
fn walk(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        match entry.metadata() {
            Ok(m) if m.is_dir() => {
                let (f, b) = walk(&entry.path());
                files += f;
                bytes += b;
            }
            Ok(m) => {
                files += 1;
                bytes += m.len();
            }
            Err(_) => {}
        }
    }
    (files, bytes)
}

/// Count a phase's sessions as attempted and its errors as failed.
fn record(phase: &str, d: &Drive, report: &mut Report) {
    report.attempt(d.sessions.len() as u64 + d.errors.len() as u64);
    for e in &d.errors {
        report.fail(&format!("{phase}: {e}"));
    }
}

/// What one pass through the serve protocol observed.
struct Observed {
    references: Vec<Reference>,
    restart_s: Vec<f64>,
    open: Drive,
    burst: Drive,
    open_cpu_s: f64,
    burst_span_s: f64,
    store_files: u64,
    store_bytes: u64,
    admitted: usize,
}

impl Observed {
    fn trials(&self, seen: &[Seen]) -> u64 {
        seen.iter().map(|s| self.references[s.spec].trials).sum()
    }

    fn latency_ms(&self) -> Vec<f64> {
        self.open
            .sessions
            .iter()
            .filter_map(|s| s.done.map(|d| (d - s.due) * 1e3))
            .collect()
    }

    /// Open-loop spans in ms, one per session that has the span.
    fn open_ms(&self, span: impl Fn(&Seen) -> Option<f64>) -> Vec<f64> {
        self.open
            .sessions
            .iter()
            .filter_map(span)
            .map(|x| x * 1e3)
            .collect()
    }
}

/// Warm-up, restarts, open loop and burst against a daemon process, sized
/// for a run of `seconds`.
fn protocol(
    specs: &[SessionSpec],
    args: &Args,
    seconds: f64,
    work: &Path,
    report: &mut Report,
) -> Option<Observed> {
    let Some(bin) = args.serve_bin.as_deref() else {
        report.fail("the serve protocol needs --serve-bin");
        return None;
    };
    let mut references = Vec::with_capacity(specs.len());
    for spec in specs {
        match layers::run(&plan_of(spec), None) {
            Ok(ran) => references.push(Reference {
                canonical: canonical_result_json(&ran.outcome.result),
                trials: ran.outcome.stats.trials(),
                tuned: ran.outcome.result.mean(),
            }),
            Err(e) => {
                report.fail(&e);
                return None;
            }
        }
    }
    let check = |spec: usize, result: &str| references[spec].canonical == result;

    let root = work.join("store");
    if let Err(e) = std::fs::create_dir_all(&root) {
        report.fail(&format!("create {}: {e}", root.display()));
        return None;
    }
    report.meta("store_fs", fs_type(&root));

    // 1. Warm-up round, untimed: every spec once.
    let daemon = match Daemon::spawn(bin, &root) {
        Ok(d) => d,
        Err(e) => {
            report.fail(&e);
            return None;
        }
    };
    let warm: Vec<(f64, usize)> = (0..specs.len()).map(|i| (0.0, i)).collect();
    let warmed = drive_clients(&daemon.endpoint, specs, &warm, &check);
    record("warm-up", &warmed, report);
    if let Err(e) = daemon.stop() {
        report.fail(&e);
    }
    let Some(first) = warmed.sessions.first().map(|s| s.id.clone()) else {
        report.fail("warm-up finished no session");
        return None;
    };

    // 2. Restarts on the warm store, until the first answered request.
    let mut restart_s = Vec::with_capacity(RESTARTS);
    let mut daemon = None;
    for r in 0..RESTARTS {
        let t = Instant::now();
        let started = Daemon::spawn(bin, &root).and_then(|d| {
            let view = Client::connect(&d.endpoint)?.poll(&first)?;
            if view.state == SessionState::Done {
                Ok(d)
            } else {
                Err(format!("restarted daemon reports {first} {:?}", view.state))
            }
        });
        match started {
            Ok(d) => {
                restart_s.push(t.elapsed().as_secs_f64());
                if r + 1 < RESTARTS {
                    if let Err(e) = d.stop() {
                        report.fail(&e);
                    }
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                report.fail(&format!("restart: {e}"));
                return None;
            }
        }
    }
    let daemon = daemon?;

    // 3. Open loop: seeded Poisson arrivals over a fixed window.
    let mut rng = Rng(derive_seed(args.seed, 0x09E7));
    let window = seconds * OPEN_SHARE;
    let mut arrivals = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.unit()).ln() / OPEN_RATE;
        if at >= window {
            break;
        }
        arrivals.push((at, rng.below(specs.len())));
    }
    let cpu0 = cpu_seconds(daemon.pid());
    let open = drive_clients(&daemon.endpoint, specs, &arrivals, &check);
    let cpu1 = cpu_seconds(daemon.pid());
    record("open loop", &open, report);

    // 4. Burst: everything due at once.
    let burst_n = (seconds * BURST_PER_S).round().max(1.0) as usize;
    let burst: Vec<(f64, usize)> = (0..burst_n)
        .map(|_| (0.0, rng.below(specs.len())))
        .collect();
    let bursted = drive_clients(&daemon.endpoint, specs, &burst, &check);
    record("burst", &bursted, report);
    if let Err(e) = daemon.stop() {
        report.fail(&e);
    }

    let open_cpu_s = match (cpu0, cpu1) {
        (Ok(a), Ok(b)) => b - a,
        (Err(e), _) | (_, Err(e)) => {
            report.fail(&e);
            0.0
        }
    };
    let first_sent = bursted
        .sessions
        .iter()
        .map(|s| s.sent)
        .fold(f64::INFINITY, f64::min);
    let last_done = bursted
        .sessions
        .iter()
        .filter_map(|s| s.done)
        .fold(0.0, f64::max);
    let (store_files, store_bytes) = walk(&root);
    report.meta("open_sessions", open.sessions.len());
    report.meta("burst_sessions", bursted.sessions.len());
    Some(Observed {
        references,
        restart_s,
        admitted: warmed.sessions.len() + open.sessions.len() + bursted.sessions.len(),
        open,
        burst: bursted,
        open_cpu_s,
        burst_span_s: (last_done - first_sent).max(f64::MIN_POSITIVE),
        store_files,
        store_bytes,
    })
}

/// Record the serve layer's metrics from one protocol pass.
fn emit_serve_layer(o: &Observed, report: &mut Report) {
    let latency_ms = o.latency_ms();
    let submit_ms = o.open_ms(|s| Some(s.acked - s.sent));
    let queue_ms = o.open_ms(|s| s.started.map(|t| t - s.acked));
    let run_ms = o.open_ms(|s| Some(s.done? - s.active?));
    let late_ms = o.open_ms(|s| Some(s.sent - s.due));
    let admitted = o.admitted.max(1) as f64;
    report.metric(
        "serve.sessions_per_s",
        o.burst.sessions.len() as f64 / o.burst_span_s,
    );
    report.metric(
        "serve.cpu_ms_per_session",
        o.open_cpu_s * 1e3 / o.open.sessions.len().max(1) as f64,
    );
    report.metric("serve.session_ms_p50", tail(&latency_ms, 0.5).value);
    report.metric("serve.session_ms_p99", tail(&latency_ms, 0.99).value);
    report.metric("serve.poll_ms_p50", tail(&o.open.poll_ms, 0.5).value);
    report.metric("serve.poll_ms_p99", tail(&o.open.poll_ms, 0.99).value);
    report.metric("serve.proto.submit_ms_p50", tail(&submit_ms, 0.5).value);
    report.metric("serve.proto.submit_ms_p99", tail(&submit_ms, 0.99).value);
    report.metric("serve.dispatch.queue_ms_p50", tail(&queue_ms, 0.5).value);
    report.metric("serve.dispatch.queue_ms_p99", tail(&queue_ms, 0.99).value);
    report.metric("serve.dispatch.run_ms_p50", tail(&run_ms, 0.5).value);
    report.metric(
        "serve.store.files_per_session",
        o.store_files as f64 / admitted,
    );
    report.metric(
        "serve.store.bytes_per_session",
        o.store_bytes as f64 / admitted,
    );
    report.metric(
        "serve.gen.late_ms_max",
        late_ms.iter().copied().fold(0.0, f64::max),
    );
    report.meta("serve_latency_samples", latency_ms.len());
    report.meta("serve_run_samples", run_ms.len());
}

/// The serve layer measured on the side of another workload's traced run:
/// one short protocol pass, serve metrics only.
pub fn serve_layer(args: &Args, work: &Path, report: &mut Report) {
    match protocol(&spec_pool(args.seed), args, SIDE_PHASE_S, work, report) {
        Some(o) => emit_serve_layer(&o, report),
        None => {
            for name in crate::report::serve_layer() {
                report.metric(name, 0.0);
            }
        }
    }
}

/// Run the serve-fleet workload and record its metrics.
pub fn run(args: &Args, work: &Path, report: &mut Report) {
    let specs = spec_pool(args.seed);
    let mut calib = Calibration::warmed();
    let before = calib.sample();
    let Some(o) = protocol(&specs, args, args.seconds as f64, work, report) else {
        return;
    };
    if !args.trace {
        let slowdown = (before + calib.sample()) / 2.0;
        let latency_ms = o.latency_ms();
        report.meta("slowdown", slowdown);
        report.metric("setup_s", median(&o.restart_s) / slowdown);
        report.metric(
            "trials_per_s",
            o.trials(&o.burst.sessions) as f64 / o.burst_span_s * slowdown,
        );
        report.metric("latency_ms_p50", tail(&latency_ms, 0.5).value / slowdown);
        report.metric("latency_ms_p95", tail(&latency_ms, 0.95).value / slowdown);
        report.metric(
            "cpu_ms_per_trial",
            o.open_cpu_s * 1e3 / o.trials(&o.open.sessions).max(1) as f64 / slowdown,
        );
        let tuned: Vec<f64> = o.references.iter().map(|r| r.tuned).collect();
        report.metric("tuned_tps", mean(&tuned));
        return;
    }
    emit_serve_layer(&o, report);
    // The served specs' layer attribution, measured in this process.
    let plans: Vec<Plan> = specs.iter().map(plan_of).collect();
    let layers = layers::attribute(&plans, work, report);
    layers::emit(&layers, report);
    let mut generate_s = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t = Instant::now();
        std::hint::black_box(make_condition(spec.size, &spec.condition, spec.seed));
        generate_s.push(t.elapsed().as_secs_f64());
    }
    report.metric("topogen.generate_ms", median(&generate_s) * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-worker server: each session takes `service` seconds of work,
    /// in submission order; submits take `submit_delay` seconds.
    struct Fake {
        t0: Instant,
        service: f64,
        submit_delay: f64,
        finish: Vec<f64>,
    }

    impl Service for Fake {
        fn submit(&mut self, _spec: usize) -> Result<String, String> {
            if self.submit_delay > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(self.submit_delay));
            }
            let now = secs(self.t0);
            let start = self.finish.last().copied().unwrap_or(0.0).max(now);
            self.finish.push(start + self.service);
            Ok((self.finish.len() - 1).to_string())
        }

        fn poll(&mut self, session: &str) -> Result<Polled, String> {
            let i: usize = session.parse().map_err(|_| "bad id".to_string())?;
            if secs(self.t0) >= self.finish[i] {
                Ok(Polled::Done(Some("ok".to_string())))
            } else {
                Ok(Polled::Waiting { active: true })
            }
        }
    }

    fn every(gap: f64, n: usize) -> Vec<(f64, usize)> {
        (0..n).map(|i| (i as f64 * gap, 0)).collect()
    }

    fn latency(s: &Seen) -> f64 {
        s.done.expect("finished") - s.due
    }

    #[test]
    fn a_slow_server_shows_queueing_in_latency() {
        let t0 = Instant::now();
        let mut fake = Fake {
            t0,
            service: 0.004,
            submit_delay: 0.0,
            finish: Vec::new(),
        };
        // One arrival per ms into a server needing 4 ms each: the n-th
        // session waits for the n before it.
        let d = drive(&mut fake, &every(0.001, 40), t0, &|_, r| r == "ok");
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        assert_eq!(d.sessions.len(), 40);
        let first = latency(&d.sessions[0]);
        let last = latency(&d.sessions[39]);
        assert!(first < 0.02, "first session waited {first}");
        assert!(last > 0.039 * 3.0, "last session only waited {last}");
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let t0 = Instant::now();
        let mut fake = Fake {
            t0,
            service: 0.0,
            submit_delay: 0.003,
            finish: Vec::new(),
        };
        // Submits take 3 ms but are due every 1 ms: later sessions go out
        // late, and that lateness must be in their latency.
        let d = drive(&mut fake, &every(0.001, 30), t0, &|_, r| r == "ok");
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        let last = d
            .sessions
            .iter()
            .max_by(|a, b| a.due.total_cmp(&b.due))
            .expect("sessions");
        let late = last.sent - last.due;
        assert!(late > 0.029 * 2.0, "last submit only {late}s late");
        assert!(
            latency(last) >= late,
            "latency {} < lateness {late}",
            latency(last)
        );
    }

    #[test]
    fn wrong_results_are_errors() {
        let t0 = Instant::now();
        let mut fake = Fake {
            t0,
            service: 0.0,
            submit_delay: 0.0,
            finish: Vec::new(),
        };
        let d = drive(&mut fake, &every(0.0, 3), t0, &|_, r| r == "something else");
        assert_eq!(d.errors.len(), 3);
    }
}
