//! One module per table/figure of the paper's evaluation, and [`emit`],
//! the one path that prints them and writes their CSVs.

use std::path::Path;

use mtm_core::report::Table;
use mtm_runner::grid::{self, Grid};
use mtm_runner::{RunnerError, RunnerOptions, Scale};
use mtm_stats::pool;

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;
pub mod table3;

/// The paper's artifacts, in the order `run_all` emits them.
pub const NAMES: [&str; 9] = [
    "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];

const SHAPE: &str = "shape checks vs the paper";

/// Refuse any name not in [`NAMES`].
pub fn check_names(names: &[&str]) -> Result<(), RunnerError> {
    match names.iter().find(|n| !NAMES.contains(n)) {
        Some(bad) => Err(RunnerError::Invalid(format!(
            "unknown artifact '{bad}'; valid names: {}",
            NAMES.join(" ")
        ))),
        None => Ok(()),
    }
}

/// Print `table` and write it as `<out_dir>/<stem>.csv`.
pub fn publish(table: &Table, stem: &str, out_dir: &Path) -> std::io::Result<()> {
    print!("{}", table.render());
    let path = out_dir.join(format!("{stem}.csv"));
    table.write_csv(&path)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The synthetic grid, run or loaded from `<out_dir>/journal` on first use.
fn load_grid<'a>(loaded: &'a mut Option<Grid>, scale: Scale, out_dir: &Path) -> &'a Grid {
    loaded.get_or_insert_with(|| {
        let ropts = RunnerOptions::parallel(pool::default_threads());
        grid::run_or_load(scale, &ropts, &out_dir.join("journal"))
    })
}

fn report(heading: &str, body: &str) {
    println!("\n## {heading}\n{body}");
}

/// Emit each of `names` in the given order at `scale`: print its
/// table(s), then (Figs. 4–8) its shape or significance report, and
/// write its CSVs into `out_dir`.
///
/// Every name is checked ([`check_names`]) before anything runs. The
/// synthetic grid that Figs. 4–7 share is loaded once, from (or into)
/// the journal under `<out_dir>/journal`, and only when one of them is
/// named.
pub fn emit(names: &[&str], scale: Scale, out_dir: &Path) -> Result<(), RunnerError> {
    check_names(names)?;
    let mut loaded: Option<Grid> = None;
    for &name in names {
        match name {
            "table1" => print!("{}", table1::run()),
            "table2" => publish(&table2::run(30), "table2", out_dir)?,
            "table3" => print!("{}", table3::run()),
            "fig3" => publish(&fig3::run(scale.steps()), "fig3", out_dir)?,
            "fig4" => {
                let g = load_grid(&mut loaded, scale, out_dir);
                publish(&fig4::run(g), "fig4", out_dir)?;
                report(SHAPE, &fig4::shape_report(g));
            }
            "fig5" => {
                let g = load_grid(&mut loaded, scale, out_dir);
                publish(&fig5::run(g), "fig5", out_dir)?;
                report(SHAPE, &fig5::shape_report(g));
            }
            "fig6" => {
                let tables = fig6::run(load_grid(&mut loaded, scale, out_dir));
                for (i, table) in tables.iter().enumerate() {
                    publish(table, &format!("fig6_cond{i}"), out_dir)?;
                }
                report(SHAPE, &fig6::shape_report(&tables));
            }
            "fig7" => {
                let g = load_grid(&mut loaded, scale, out_dir);
                publish(&fig7::run(g), "fig7", out_dir)?;
                report(SHAPE, &fig7::shape_report(g));
            }
            "fig8" => {
                let r = fig8::run(
                    &scale.run_options(0x51D0),
                    &scale.run_options_extended(0x51D0),
                )?;
                publish(&fig8::throughput_table(&r), "fig8a", out_dir)?;
                report(
                    "significance analysis (two-sided Welch t-tests)",
                    &fig8::significance_report(&r),
                );
                let path = out_dir.join("fig8b.csv");
                fig8::convergence_table(&r).write_csv(&path)?;
                eprintln!("wrote {}", path.display());
            }
            other => {
                return Err(RunnerError::Invalid(format!(
                    "artifact '{other}' has no emitter"
                )))
            }
        }
    }
    Ok(())
}
