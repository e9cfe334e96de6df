//! Run the design-choice ablation studies.
use mtm_bench::{ablations, figures, Scale};
use mtm_runner::results_dir;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    let steps = scale.steps().min(40);
    let out_dir = results_dir();
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
        figures::publish(&table, name, &out_dir)?;
        println!();
    }
    Ok(())
}
