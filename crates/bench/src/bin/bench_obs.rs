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
//! machine-readable `BENCH_obs.json` at the repo root and prints it to
//! stdout.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_obs
//! ```

use serde::Serialize;

use mtm_bayesopt::{space::Param, BayesOpt, BoConfig, ParamSpace};
use mtm_gp::FitOptions;
use mtm_obs::MemRecorder;
use mtm_obs::NullRecorder;
use mtm_stats::quantile::median;
use mtm_stormsim::{simulate_flow_with, ClusterSpec, StormConfig};
use mtm_topogen::sundog_topology;

/// Matches `bench_gp`'s propose workload: 10 integer parameters.
const DIM: usize = 10;
/// History size for the propose workload (the middle `bench_gp` cell).
const HISTORY: usize = 60;
/// Timed repetitions per arm; the medians go into the record.
const REPS: usize = 9;
/// Flow-sim runs per timed rep (one run is ~5µs, below what a single
/// `Instant` pair can resolve).
const FLOW_BATCH: usize = 1000;
/// A/A delta above this percentage fails the zero-cost claim. Loose on
/// purpose: shared CI machines jitter, and a real recording cost on
/// these microsecond-to-millisecond workloads would blow far past it.
const NOISE_TOLERANCE_PCT: f64 = 15.0;
/// Mem-arm overhead above this percentage fails the bench. The arena
/// `MemRecorder` buffers events into preallocated slots, so recording a
/// workload should cost event construction plus stores — not a
/// multiple of the workload. (The old gate only inspected the A/A
/// delta, which let a 230% mem-arm regression ride through unnoticed.)
/// Tightened 25 → 20 once the arena recorder plus the SoA flow path
/// settled the steady-state overhead around 11%.
const MEM_OVERHEAD_TOLERANCE_PCT: f64 = 20.0;

#[derive(Debug, Serialize)]
struct Cell {
    /// Workload label.
    workload: &'static str,
    /// Median wall seconds, first `NullRecorder` arm.
    null_a_s: f64,
    /// Median wall seconds, second `NullRecorder` arm (same code).
    null_b_s: f64,
    /// `|null_a − null_b| / min(null_a, null_b)`, in percent — the
    /// noise floor the zero-cost claim is judged against.
    aa_delta_pct: f64,
    /// Median wall seconds with a live `MemRecorder`.
    mem_s: f64,
    /// Events one recorded run produced.
    mem_events: usize,
    /// `(mem − min null) / min null`, in percent.
    mem_overhead_pct: f64,
    /// `aa_delta_pct <= NOISE_TOLERANCE_PCT`.
    within_noise: bool,
    /// `mem_overhead_pct <= MEM_OVERHEAD_TOLERANCE_PCT` — the gate the
    /// mem arm is actually judged by.
    mem_within_tolerance: bool,
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    dim: usize,
    history: usize,
    reps: usize,
    noise_tolerance_pct: f64,
    mem_overhead_tolerance_pct: f64,
    cells: Vec<Cell>,
}

/// Drive a fresh optimizer to [`HISTORY`] observations of a
/// deterministic objective (same priming as `bench_gp`).
fn primed_optimizer() -> Result<BayesOpt, String> {
    let params: Vec<Param> = (0..DIM)
        .map(|i| Param::int(&format!("h{i}"), 1, 60))
        .collect();
    let config = BoConfig::builder()
        .seed(2)
        .fit(FitOptions::fast())
        .n_init(6)
        .n_candidates(256)
        .refit_every(4)
        .build()
        .map_err(|e| format!("bench config: {e}"))?;
    let mut bo = BayesOpt::new(ParamSpace::new(params), config);
    for _ in 0..HISTORY {
        let c = bo.propose().map_err(|e| format!("prime propose: {e}"))?;
        let y = c
            .values
            .iter()
            .map(|v| v.as_int() as f64)
            .sum::<f64>()
            .sin();
        bo.observe(c, y)
            .map_err(|e| format!("prime observe: {e}"))?;
    }
    Ok(bo)
}

fn cell(
    workload: &'static str,
    null_a: Vec<f64>,
    null_b: Vec<f64>,
    mem: Vec<f64>,
    mem_events: usize,
) -> Cell {
    let null_a_s = median(&null_a).unwrap_or(f64::NAN);
    let null_b_s = median(&null_b).unwrap_or(f64::NAN);
    let floor = null_a_s.min(null_b_s).max(1e-12);
    let aa_delta_pct = (null_a_s - null_b_s).abs() / floor * 100.0;
    let mem_s = median(&mem).unwrap_or(f64::NAN);
    let mem_overhead_pct = (mem_s - floor) / floor * 100.0;
    Cell {
        workload,
        null_a_s,
        null_b_s,
        aa_delta_pct,
        mem_s,
        mem_events,
        mem_overhead_pct,
        within_noise: aa_delta_pct <= NOISE_TOLERANCE_PCT,
        mem_within_tolerance: mem_overhead_pct <= MEM_OVERHEAD_TOLERANCE_PCT,
    }
}

/// `bo_propose_history`: one propose at a 60-point history, cloning the
/// primed state each rep so every arm pays the identical per-step cost.
fn bench_propose() -> Result<Cell, String> {
    let bo = primed_optimizer()?;
    // Warm-up (page-in, branch predictors).
    bo.clone()
        .propose()
        .map_err(|e| format!("warm-up propose: {e}"))?;
    let (mut null_a, mut null_b, mut mem) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem_events = 0usize;
    // One arena recorder for the whole bench, cleared between reps —
    // the reuse idiom every steady-state call site is expected to use.
    let mut rec = MemRecorder::new();
    for _ in 0..REPS {
        let mut run = bo.clone();
        let t0 = std::time::Instant::now();
        std::hint::black_box(run.propose().map_err(|e| format!("null propose: {e}"))?);
        null_a.push(t0.elapsed().as_secs_f64());

        let mut run = bo.clone();
        rec.clear();
        let t0 = std::time::Instant::now();
        std::hint::black_box(
            run.propose_recorded(&mut rec)
                .map_err(|e| format!("recorded propose: {e}"))?,
        );
        mem.push(t0.elapsed().as_secs_f64());
        mem_events = rec.len();

        let mut run = bo.clone();
        let t0 = std::time::Instant::now();
        std::hint::black_box(run.propose().map_err(|e| format!("null propose: {e}"))?);
        null_b.push(t0.elapsed().as_secs_f64());
    }
    Ok(cell(
        "bo_propose_history60",
        null_a,
        null_b,
        mem,
        mem_events,
    ))
}

/// `flow_sim_sundog`: the analytic flow simulator on the paper's Sundog
/// topology. A single run is a few microseconds — below timer
/// granularity — so each timed rep is a batch of [`FLOW_BATCH`] runs and
/// the recorded medians are seconds per batch.
fn bench_flow_sim() -> Cell {
    let topo = sundog_topology();
    let cluster = ClusterSpec::paper_cluster();
    let mut config = StormConfig::baseline(topo.n_nodes());
    config.parallelism_hints = (0..topo.n_nodes() as u32).map(|v| 1 + v % 7).collect();
    // All three arms drive the same recording seam — the null arms
    // with `NullRecorder`, the mem arm with the live arena — so the
    // delta isolates recording cost, not code-path differences (the
    // bound `FlowSimulator` fast path has its own bench, `bench_sim`).
    // Warm-up.
    std::hint::black_box(simulate_flow_with(
        &topo,
        &config,
        &cluster,
        120.0,
        &mut NullRecorder,
    ));
    let (mut null_a, mut null_b, mut mem) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem_events = 0usize;
    // One arena recorder reused across every recorded run: `clear`
    // resets the live length but keeps the slots, so after the first
    // run the mem arm measures event construction and stores — no
    // allocation. This is the steady-state shape of instrumented call
    // sites (the runner reuses one recorder across a whole pass).
    let mut rec = MemRecorder::new();
    for _ in 0..REPS {
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
        null_a.push(t0.elapsed().as_secs_f64());

        let t0 = std::time::Instant::now();
        for _ in 0..FLOW_BATCH {
            rec.clear();
            std::hint::black_box(simulate_flow_with(
                &topo, &config, &cluster, 120.0, &mut rec,
            ));
            mem_events = rec.len();
        }
        mem.push(t0.elapsed().as_secs_f64());

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
        null_b.push(t0.elapsed().as_secs_f64());
    }
    cell("flow_sim_sundog_x1000", null_a, null_b, mem, mem_events)
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
    let record = BenchRecord {
        bench: "obs",
        dim: DIM,
        history: HISTORY,
        reps: REPS,
        noise_tolerance_pct: NOISE_TOLERANCE_PCT,
        mem_overhead_tolerance_pct: MEM_OVERHEAD_TOLERANCE_PCT,
        cells: vec![propose, flow],
    };
    let noise_ok = record.cells.iter().all(|c| c.within_noise);
    let mem_ok = record.cells.iter().all(|c| c.mem_within_tolerance);
    let json =
        serde_json::to_string_pretty(&record).map_err(|e| format!("serialize record: {e}"))?;
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_obs.json");
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{json}");
    eprintln!("[bench_obs] wrote {}", path.display());
    if !noise_ok {
        return Err("A/A null-recorder delta exceeded the noise tolerance".into());
    }
    if !mem_ok {
        return Err("mem-arm recording overhead exceeded the tolerance".into());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_obs: {e}");
        std::process::exit(1);
    }
}
