//! Regenerate Fig. 3 (network load per worker).
use mtm_bench::Scale;
fn main() {
    let scale = Scale::from_env();
    let table = mtm_bench::figures::fig3::run(scale.steps());
    print!("{}", table.render());
    let path = mtm_runner::results_dir().join("fig3.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
