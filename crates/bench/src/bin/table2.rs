//! Regenerate Table II (topology statistics, ours vs paper).
fn main() {
    let table = mtm_bench::figures::table2::run(30);
    print!("{}", table.render());
    let path = mtm_runner::results_dir().join("table2.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
