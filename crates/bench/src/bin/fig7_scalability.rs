//! Regenerate Fig. 7 (optimizer step wall-time).
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
    let table = mtm_bench::figures::fig7::run(&g);
    print!("{}", table.render());
    println!(
        "\n## shape checks vs the paper\n{}",
        mtm_bench::figures::fig7::shape_report(&g)
    );
    let path = results_dir().join("fig7.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
