//! Run the design-choice ablation studies.
use mtm_bench::{ablations, Scale};
use mtm_runner::results_dir;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    let steps = scale.steps().min(40);
    for (name, table) in [
        (
            "ablation_averaging",
            ablations::measurement_averaging(steps)?,
        ),
        ("ablation_acquisition", ablations::acquisitions(steps)?),
        ("ablation_kernel", ablations::kernels(steps)?),
        (
            "ablation_marginalization",
            ablations::marginalization(steps.min(25))?,
        ),
        (
            "ablation_contention",
            ablations::contention_exponent(steps)?,
        ),
    ] {
        print!("{}", table.render());
        println!();
        let path = results_dir().join(format!("{name}.csv"));
        table.write_csv(&path)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
