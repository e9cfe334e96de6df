//! Smoke tests of the figure harness: every table/figure runner produces
//! plausible output at smoke scale.

use mtm_bench::figures;
use mtm_bench::Scale;
use mtm_runner::{grid, RunnerOptions};
use mtm_stats::pool;

#[test]
fn tables_render() {
    let t1 = figures::table1::run();
    assert!(t1.contains("Batch Size"));

    let t2 = figures::table2::run(5);
    assert_eq!(t2.rows.len(), 6); // ours + paper for each size

    let t3 = figures::table3::run();
    assert!(t3.contains("DEBS"));
}

#[test]
fn fig3_reports_unsaturated_network() {
    let t = figures::fig3::run(6);
    assert_eq!(t.rows.len(), 4);
    assert!(t
        .rows
        .iter()
        .all(|r| r.values[0] > 0.0 && r.values[0] < 128.0));
}

#[test]
fn synthetic_grid_figures_flow_from_one_grid() {
    // One smoke grid feeds figs 4-7, like the real binaries.
    let g = grid::run(
        Scale::Smoke,
        &RunnerOptions::parallel(pool::default_threads()),
    );

    let f4 = figures::fig4::run(&g);
    // 4 conditions × 3 sizes × 8 strategies (incl. the zoo).
    assert_eq!(f4.rows.len(), 96);
    assert!(f4.rows.iter().all(|r| r.values[0] >= 0.0));

    let f5 = figures::fig5::run(&g);
    assert!(f5.rows.iter().all(|r| r.values[0] <= r.values[2]));

    let f6 = figures::fig6::run(&g);
    assert_eq!(f6.len(), 4);

    let f7 = figures::fig7::run(&g);
    assert!(f7
        .rows
        .iter()
        .filter(|r| r.label.ends_with("| pla"))
        .all(|r| r.values[0] < 0.01));

    // The shape reports never panic and mention their checks.
    assert!(figures::fig4::shape_report(&g).contains("bo180"));
    assert!(figures::fig5::shape_report(&g).contains("steps-to-best"));
    assert!(figures::fig7::shape_report(&g).contains("step time"));
}

#[test]
fn fig8_smoke() {
    let opts60 = Scale::Smoke.run_options(1);
    let opts180 = Scale::Smoke.run_options_extended(1);
    let r = figures::fig8::run(&opts60, &opts180).unwrap();
    let a = figures::fig8::throughput_table(&r);
    assert_eq!(a.rows.len(), 6);
    let report = figures::fig8::significance_report(&r);
    assert!(report.contains("pinned hint"));
}

#[test]
fn emit_writes_every_promised_csv() {
    let dir = std::env::temp_dir().join(format!("mtm-emit-tests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // An unknown name is refused before any artifact runs.
    assert!(figures::emit(&["table2", "nope"], Scale::Smoke, &dir).is_err());
    assert!(!dir.exists());

    // Table II needs no grid, so no journal appears.
    figures::emit(&["table2"], Scale::Smoke, &dir).unwrap();
    assert!(dir.join("table2.csv").is_file());
    assert!(!dir.join("journal").exists());

    figures::emit(&figures::NAMES, Scale::Smoke, &dir).unwrap();
    for stem in [
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "fig6_cond0",
        "fig6_cond1",
        "fig6_cond2",
        "fig6_cond3",
        "fig7",
        "fig8a",
        "fig8b",
    ] {
        assert!(dir.join(format!("{stem}.csv")).is_file(), "{stem}.csv");
    }
    assert!(dir.join("journal").is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}
