//! Wall-clock record for the observability layer's zero-cost claim.
//!
//! The `NullRecorder` path IS the production path: `BayesOpt::propose`
//! and `simulate_flow_with` both monomorphize over `Recorder` with
//! `R::ENABLED = false`, so every event construction is dead code the
//! compiler removes. That claim is structural (and the determinism
//! probe asserts it bitwise); what this bench records is that it also
//! holds on the clock:
//!
//! * **A/A null arms** — the same workload timed twice through the
//!   `NullRecorder` path, interleaved rep by rep. The delta between the
//!   two arms is the measurement noise floor; a hidden recording cost
//!   would have nowhere to hide *between* them, so the claim
//!   "`NullRecorder` overhead is unmeasurable" is recorded as this
//!   delta staying within tolerance.
//! * **Mem arm** — the same workload through a live [`MemRecorder`],
//!   showing what recording actually costs when it is switched on
//!   (events are constructed and buffered; still no I/O).
//!
//! Workloads: a single `BayesOpt::propose` at a 60-observation history
//! (the surrogate hot path `bench_gp` tracks) and a full
//! `simulate_flow_with` run on the Sundog topology. Writes the
//! machine-readable `BENCH_obs.json` at the repo root, prints it to
//! stdout, and exits non-zero when either gate of [`ObsRecord::gate`]
//! fails.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_obs
//! ```

use std::process::ExitCode;

use mtm_bench::perf::obs::{ObsCell, ObsRecord, MEM_OVERHEAD_TOLERANCE_PCT, NOISE_TOLERANCE_PCT};
use mtm_bench::perf::{self, primed_optimizer, PRIMED_DIM};
use mtm_obs::MemRecorder;
use mtm_obs::NullRecorder;
use mtm_stormsim::{simulate_flow_with, ClusterSpec, StormConfig};
use mtm_topogen::sundog_topology;

/// History size for the propose workload (the middle `bench_gp` cell).
const HISTORY: usize = 60;
/// Timed repetitions per arm; the medians go into the record.
const REPS: usize = 9;
/// Flow-sim runs per timed rep (one run is ~5µs, below what a single
/// `Instant` pair can resolve).
const FLOW_BATCH: usize = 1000;

/// `bo_propose_history`: one propose at a 60-point history, cloning the
/// primed state each rep so every arm pays the identical per-step cost.
fn bench_propose() -> Result<ObsCell, String> {
    let bo = primed_optimizer(HISTORY)?;
    // Warm-up (page-in, branch predictors).
    bo.clone()
        .propose()
        .map_err(|e| format!("warm-up propose: {e}"))?;
    // Both null arms: wall seconds of one propose from a fresh clone.
    let null_propose = || -> Result<f64, String> {
        let mut run = bo.clone();
        let t0 = std::time::Instant::now();
        std::hint::black_box(run.propose().map_err(|e| format!("null propose: {e}"))?);
        Ok(t0.elapsed().as_secs_f64())
    };
    let (mut null_a, mut null_b, mut mem) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem_events = 0usize;
    // One arena recorder for the whole bench, cleared between reps —
    // the reuse idiom every steady-state call site is expected to use.
    let mut rec = MemRecorder::new();
    for _ in 0..REPS {
        null_a.push(null_propose()?);

        let mut run = bo.clone();
        rec.clear();
        let t0 = std::time::Instant::now();
        std::hint::black_box(
            run.propose_recorded(&mut rec)
                .map_err(|e| format!("recorded propose: {e}"))?,
        );
        mem.push(t0.elapsed().as_secs_f64());
        mem_events = rec.len();

        null_b.push(null_propose()?);
    }
    Ok(ObsCell::new(
        "bo_propose_history60",
        &null_a,
        &null_b,
        &mem,
        mem_events,
    ))
}

/// `flow_sim_sundog`: the analytic flow simulator on the paper's Sundog
/// topology. A single run is a few microseconds — below timer
/// granularity — so each timed rep is a batch of [`FLOW_BATCH`] runs and
/// the recorded medians are seconds per batch.
fn bench_flow_sim() -> ObsCell {
    let topo = sundog_topology();
    let cluster = ClusterSpec::paper_cluster();
    let mut config = StormConfig::baseline(topo.n_nodes());
    config.parallelism_hints = (0..topo.n_nodes() as u32).map(|v| 1 + v % 7).collect();
    // All three arms drive the same recording seam — the null arms
    // with `NullRecorder`, the mem arm with the live arena — so the
    // delta isolates recording cost, not code-path differences (the
    // bound `FlowSimulator` fast path has its own bench, `bench_sim`).
    // Both null arms (and the warm-up): wall seconds of one batch.
    let null_batch = || {
        let t0 = std::time::Instant::now();
        for _ in 0..FLOW_BATCH {
            std::hint::black_box(simulate_flow_with(
                &topo,
                &config,
                &cluster,
                120.0,
                &mut NullRecorder,
            ));
        }
        t0.elapsed().as_secs_f64()
    };
    null_batch();
    let (mut null_a, mut null_b, mut mem) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem_events = 0usize;
    // One arena recorder reused across every recorded run: `clear`
    // resets the live length but keeps the slots, so after the first
    // run the mem arm measures event construction and stores — no
    // allocation. This is the steady-state shape of instrumented call
    // sites (the runner reuses one recorder across a whole pass).
    let mut rec = MemRecorder::new();
    for _ in 0..REPS {
        null_a.push(null_batch());

        let t0 = std::time::Instant::now();
        for _ in 0..FLOW_BATCH {
            rec.clear();
            std::hint::black_box(simulate_flow_with(
                &topo, &config, &cluster, 120.0, &mut rec,
            ));
            mem_events = rec.len();
        }
        mem.push(t0.elapsed().as_secs_f64());

        null_b.push(null_batch());
    }
    ObsCell::new("flow_sim_sundog_x1000", &null_a, &null_b, &mem, mem_events)
}

fn run() -> Result<(), String> {
    eprintln!("[bench_obs] bo_propose at history {HISTORY} (null A/A + mem arms)");
    let propose = bench_propose()?;
    eprintln!(
        "[bench_obs] propose: null {:.6}s/{:.6}s (Δ {:.1}%), mem {:.6}s ({} events)",
        propose.null_a_s, propose.null_b_s, propose.aa_delta_pct, propose.mem_s, propose.mem_events
    );
    eprintln!("[bench_obs] flow_sim on sundog (null A/A + mem arms)");
    let flow = bench_flow_sim();
    eprintln!(
        "[bench_obs] flow_sim: null {:.6}s/{:.6}s (Δ {:.1}%), mem {:.6}s ({} events)",
        flow.null_a_s, flow.null_b_s, flow.aa_delta_pct, flow.mem_s, flow.mem_events
    );
    let record = ObsRecord {
        bench: "obs",
        dim: PRIMED_DIM,
        history: HISTORY,
        reps: REPS,
        noise_tolerance_pct: NOISE_TOLERANCE_PCT,
        mem_overhead_tolerance_pct: MEM_OVERHEAD_TOLERANCE_PCT,
        cells: vec![propose, flow],
    };
    perf::write_record("obs", &record)?;
    record.gate()
}

fn main() -> ExitCode {
    perf::run_main("obs", run)
}
