//! Regenerate Fig. 6 (LOESS-smoothed BO trajectories).
use mtm_bench::Scale;
use mtm_runner::{grid, journal_root, results_dir, RunnerOptions};
use mtm_stats::pool;
fn main() {
    let scale = Scale::from_env();
    let g = grid::run_or_load(
        scale,
        &RunnerOptions::parallel(pool::default_threads()),
        &journal_root(),
    );
    let tables = mtm_bench::figures::fig6::run(&g);
    for (i, table) in tables.iter().enumerate() {
        print!("{}", table.render());
        let path = results_dir().join(format!("fig6_cond{i}.csv"));
        table.write_csv(&path).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    println!(
        "\n## shape checks vs the paper\n{}",
        mtm_bench::figures::fig6::shape_report(&tables)
    );
}
