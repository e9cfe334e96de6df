//! Regenerate every table and figure in sequence.
use mtm_bench::{figures, Scale};
use mtm_runner::{grid, journal_root, results_dir, RunnerOptions};
use mtm_stats::pool;

fn main() -> Result<(), mtm_runner::RunnerError> {
    let scale = Scale::from_env();
    eprintln!("running all tables/figures at scale '{}'", scale.label());

    print!("{}", figures::table1::run());
    println!();

    let t2 = figures::table2::run(30);
    print!("{}", t2.render());
    t2.write_csv(&results_dir().join("table2.csv"))
        .expect("csv");
    println!();

    print!("{}", figures::table3::run());
    println!();

    let t3 = figures::fig3::run(scale.steps());
    print!("{}", t3.render());
    t3.write_csv(&results_dir().join("fig3.csv")).expect("csv");
    println!();

    let g = grid::run_or_load(
        scale,
        &RunnerOptions::parallel(pool::default_threads()),
        &journal_root(),
    );

    let f4 = figures::fig4::run(&g);
    print!("{}", f4.render());
    println!("{}", figures::fig4::shape_report(&g));
    f4.write_csv(&results_dir().join("fig4.csv")).expect("csv");

    let f5 = figures::fig5::run(&g);
    print!("{}", f5.render());
    println!("{}", figures::fig5::shape_report(&g));
    f5.write_csv(&results_dir().join("fig5.csv")).expect("csv");

    let f6 = figures::fig6::run(&g);
    for (i, t) in f6.iter().enumerate() {
        t.write_csv(&results_dir().join(format!("fig6_cond{i}.csv")))
            .expect("csv");
    }
    println!("{}", figures::fig6::shape_report(&f6));

    let f7 = figures::fig7::run(&g);
    print!("{}", f7.render());
    println!("{}", figures::fig7::shape_report(&g));
    f7.write_csv(&results_dir().join("fig7.csv")).expect("csv");

    let r8 = figures::fig8::run(
        &scale.run_options(0x51D0),
        &scale.run_options_extended(0x51D0),
    )?;
    let f8a = figures::fig8::throughput_table(&r8);
    print!("{}", f8a.render());
    println!("{}", figures::fig8::significance_report(&r8));
    f8a.write_csv(&results_dir().join("fig8a.csv"))
        .expect("csv");
    figures::fig8::convergence_table(&r8)
        .write_csv(&results_dir().join("fig8b.csv"))
        .expect("csv");

    eprintln!("all outputs under {}", results_dir().display());
    Ok(())
}
