//! Wall-clock record for binding the flow model once per topology.
//!
//! A [`FlowSimulator`] runs the topology-level analysis once, in `new`,
//! and then scores any number of configurations with `evaluate`. This
//! bench times that bound arm against a fresh simulator per
//! configuration (analysis paid on every call) at V ∈ {100, 1k, 10k}
//! with N = 16 configurations, asserts the two arms' results stay
//! *bitwise* identical, and gates on the headline claim: the bound
//! simulator is ≥ 3× faster than a fresh one per configuration at
//! V = 10k. Writes the machine-readable `BENCH_sim.json` at the repo
//! root, prints it to stdout, and exits non-zero when
//! [`SimRecord::gate`] fails.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_sim
//! ```

use std::process::ExitCode;

use mtm_bench::perf;
use mtm_bench::perf::sim::{SimCell, SimRecord, MIN_SPEEDUP_AT_10K};
use mtm_stats::quantile::median;
use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig};
use mtm_topogen::{generate_layer_by_layer, GgenParams};

/// Configurations per sweep.
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

    // The fresh arm: a new simulator per configuration, so the topology
    // analysis is paid on every evaluation.
    let fresh = |config: &StormConfig| {
        FlowSimulator::new(topo.clone(), cluster.clone(), 120.0)
            .expect("valid window")
            .evaluate(config)
            .expect("valid config")
    };
    // The bound arm: one simulator, `evaluate` per configuration.
    let sim = FlowSimulator::new(topo.clone(), cluster.clone(), 120.0)
        .map_err(|e| format!("{}: {e}", w.label))?;
    let bound = |config: &StormConfig| {
        sim.evaluate(config)
            .map_err(|e| format!("{}: {e}", w.label))
    };

    // Warm-up both arms (page-in, branch predictors).
    let fresh_results: Vec<_> = configs.iter().map(&fresh).collect();
    let bound_results = configs.iter().map(&bound).collect::<Result<Vec<_>, _>>()?;
    let bitwise_identical = bound_results == fresh_results;

    let (mut seq, mut bnd) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        for config in &configs {
            std::hint::black_box(fresh(config));
        }
        seq.push(t0.elapsed().as_secs_f64());

        let t0 = std::time::Instant::now();
        for config in &configs {
            std::hint::black_box(bound(config)?);
        }
        bnd.push(t0.elapsed().as_secs_f64());
    }
    let sequential_s = median(&seq).unwrap_or(f64::NAN);
    let bound_s = median(&bnd).unwrap_or(f64::NAN);
    Ok(SimCell {
        workload: w.label,
        vertices: w.vertices,
        n_configs: N_CONFIGS,
        sequential_s,
        bound_s,
        speedup: sequential_s / bound_s.max(1e-12),
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
            "[bench_sim] {}: sequential {:.6}s, bound {:.6}s ({:.1}x, bitwise={})",
            cell.workload, cell.sequential_s, cell.bound_s, cell.speedup, cell.bitwise_identical
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
