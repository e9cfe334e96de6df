//! Regenerate Fig. 8 (Sundog throughput and convergence).
use mtm_bench::{figures::fig8, Scale};
use mtm_runner::results_dir;
fn main() -> Result<(), mtm_runner::RunnerError> {
    let scale = Scale::from_env();
    let r = fig8::run(
        &scale.run_options(0x51D0),
        &scale.run_options_extended(0x51D0),
    )?;
    let a = fig8::throughput_table(&r);
    print!("{}", a.render());
    println!(
        "\n## significance analysis (two-sided Welch t-tests)\n{}",
        fig8::significance_report(&r)
    );
    let b = fig8::convergence_table(&r);
    a.write_csv(&results_dir().join("fig8a.csv"))
        .expect("write CSV");
    b.write_csv(&results_dir().join("fig8b.csv"))
        .expect("write CSV");
    eprintln!("wrote fig8a.csv / fig8b.csv to {}", results_dir().display());
    Ok(())
}
