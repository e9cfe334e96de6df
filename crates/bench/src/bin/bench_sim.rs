//! Wall-clock record for the batched simulation engine.
//!
//! The batched path ([`FlowSimulator::evaluate_batch_into`]) exists to
//! make candidate sweeps cheap on large topologies: one flow analysis
//! and one set of scratch buffers shared across N configurations,
//! against the status-quo per-config path that re-analyzes the
//! topology and reallocates its working set on every call. This bench
//! records both arms at V ∈ {100, 1k, 10k} with N = 16 configurations,
//! asserts the batched results stay *bitwise* identical to the
//! sequential ones, and gates on the headline claim: batched ≥ 3×
//! faster than per-config sequential at V = 10k. Writes the
//! machine-readable `BENCH_sim.json` at the repo root, prints it to
//! stdout, and exits non-zero when [`SimRecord::gate`] fails.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_sim
//! ```

use std::process::ExitCode;

use mtm_bench::perf;
use mtm_bench::perf::sim::{SimCell, SimRecord, MIN_SPEEDUP_AT_10K};
use mtm_stats::quantile::median;
use mtm_stormsim::{ClusterSpec, FlowSimulator, SimBatch, Simulator, StormConfig};
use mtm_topogen::{generate_layer_by_layer, GgenParams};

/// Candidate configurations per sweep — the batch width the acquisition
/// loop actually evaluates.
const N_CONFIGS: u32 = 16;
/// Timed repetitions per arm; the medians go into the record.
const REPS: usize = 9;

/// One topology size cell.
struct Workload {
    label: &'static str,
    vertices: usize,
    layers: usize,
    /// Cluster size: 10k tasks thrash on the 80-machine paper cluster
    /// (spin overhead alone exceeds machine capacity), so the cluster
    /// scales with the graph (~25 tasks/machine).
    machines: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        label: "v100",
        vertices: 100,
        layers: 6,
        machines: 80,
    },
    Workload {
        label: "v1k",
        vertices: 1_000,
        layers: 8,
        machines: 80,
    },
    Workload {
        label: "v10k",
        vertices: 10_000,
        layers: 12,
        machines: 400,
    },
];

/// The candidate sweep for a `v`-vertex topology: at 10k vertices only
/// large single-pipeline batches commit inside the batch timeout, so
/// the sweep varies batch size with tasks pinned at one per node; the
/// smaller sizes use the ordinary parallelism-hint sweep.
fn sweep(v: usize) -> Vec<StormConfig> {
    if v >= 10_000 {
        (0..N_CONFIGS)
            .map(|i| {
                let mut c = StormConfig::uniform_hints(v, 1);
                c.max_tasks = v as u32;
                c.ackers = 32;
                c.batch_size = 30_000 + 2_000 * i;
                c.batch_parallelism = 1;
                c
            })
            .collect()
    } else {
        (1..=N_CONFIGS)
            .map(|h| StormConfig::uniform_hints(v, h))
            .collect()
    }
}

fn bench_cell(w: &Workload) -> Result<SimCell, String> {
    let params = GgenParams::with_density(w.vertices, w.layers, 2.5, 0xBE7C)
        .map_err(|e| format!("{}: {e}", w.label))?;
    let topo = generate_layer_by_layer(&params);
    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = w.machines;
    let configs = sweep(w.vertices);

    // The status-quo arm: a fresh simulator per call, the shape of the
    // old free-function API (topology analysis and scratch allocation
    // paid on every evaluation).
    let per_config = |config: &StormConfig| {
        FlowSimulator::new(topo.clone(), cluster.clone(), 120.0)
            .expect("valid window")
            .evaluate(config)
            .expect("valid config")
    };

    let sim = FlowSimulator::new(topo.clone(), cluster.clone(), 120.0)
        .map_err(|e| format!("{}: {e}", w.label))?;
    let mut batch = SimBatch::new();

    // Warm-up both arms (page-in, scratch high-water mark).
    let seq_results: Vec<_> = configs.iter().map(&per_config).collect();
    sim.evaluate_batch_into(&configs, &mut batch)
        .map_err(|e| format!("{}: {e}", w.label))?;
    let bitwise_identical = batch.results() == &seq_results[..];

    let (mut seq, mut bat) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        for config in &configs {
            std::hint::black_box(per_config(config));
        }
        seq.push(t0.elapsed().as_secs_f64());

        let t0 = std::time::Instant::now();
        sim.evaluate_batch_into(&configs, &mut batch)
            .map_err(|e| format!("{}: {e}", w.label))?;
        std::hint::black_box(batch.results().len());
        bat.push(t0.elapsed().as_secs_f64());
    }
    let sequential_s = median(&seq).unwrap_or(f64::NAN);
    let batched_s = median(&bat).unwrap_or(f64::NAN);
    Ok(SimCell {
        workload: w.label,
        vertices: w.vertices,
        n_configs: N_CONFIGS,
        sequential_s,
        batched_s,
        speedup: sequential_s / batched_s.max(1e-12),
        bitwise_identical,
    })
}

fn run() -> Result<(), String> {
    let mut cells = Vec::new();
    for w in &WORKLOADS {
        eprintln!(
            "[bench_sim] {}: {} vertices, {} configs/sweep",
            w.label, w.vertices, N_CONFIGS
        );
        let cell = bench_cell(w)?;
        eprintln!(
            "[bench_sim] {}: sequential {:.6}s, batched {:.6}s ({:.1}x, bitwise={})",
            cell.workload, cell.sequential_s, cell.batched_s, cell.speedup, cell.bitwise_identical
        );
        cells.push(cell);
    }
    let record = SimRecord {
        bench: "sim",
        reps: REPS,
        min_speedup_at_10k: MIN_SPEEDUP_AT_10K,
        cells,
    };
    perf::write_record("sim", &record)?;
    record.gate()
}

fn main() -> ExitCode {
    perf::run_main("sim", run)
}
