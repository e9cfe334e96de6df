//! The repo-level gate, wired into `cargo test`: the workspace's own
//! library code must pass the AST analyze pass (zero unannotated
//! taint/float findings), and the panic/index/div site counts must not
//! exceed the ceilings in `check/ratchet.toml`.

use std::path::PathBuf;

use mtm_check::analyze;
use mtm_check::ratchet::Ratchet;

fn workspace_root() -> PathBuf {
    // crates/check -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

#[test]
fn workspace_analyze_is_clean_and_within_ratchet() {
    let root = workspace_root();
    let analysis = analyze::analyze_workspace(&root).expect("parse workspace");
    assert!(
        analysis.report.is_empty(),
        "analyze findings (fix, or annotate sanctioned sites with \
         `// mtm-allow: <key> -- <reason>`):\n{}",
        analysis.report.render()
    );
    let text = std::fs::read_to_string(root.join("check/ratchet.toml")).expect(
        "check/ratchet.toml exists — it is kept by hand: lower a budget by hand, with a comment",
    );
    let ratchet = Ratchet::parse(&text).expect("ratchet parses");
    let (failures, _tighten) = ratchet.compare(&analysis.counts);
    assert!(
        failures.is_empty(),
        "panic-path ratchet violated (counts can only go down):\n{}",
        failures.join("\n")
    );
}

#[test]
fn runner_crate_stays_panic_free() {
    // The execution engine must not gain panic paths: its budget is
    // pinned at zero (zero-count units are omitted from the file).
    let analysis = analyze::analyze_workspace(&workspace_root()).expect("parse workspace");
    let runner = analysis.counts.get("crates/runner");
    assert_eq!(
        runner.map_or(0, |c| c.panic_sites),
        0,
        "crates/runner grew panic sites: {runner:?}"
    );
}

#[test]
fn ratchet_rejects_synthetic_increase() {
    // Simulate a PR adding one panic site to every unit: the recorded
    // file must reject each of them.
    let root = workspace_root();
    let analysis = analyze::analyze_workspace(&root).expect("parse workspace");
    let text = std::fs::read_to_string(root.join("check/ratchet.toml")).expect("ratchet file");
    let ratchet = Ratchet::parse(&text).expect("ratchet parses");
    let mut inflated = analysis.counts.clone();
    for counts in inflated.values_mut() {
        counts.panic_sites += 1;
    }
    inflated
        .entry("crates/brand-new".to_string())
        .or_default()
        .panic_sites = 1;
    let (failures, _) = ratchet.compare(&inflated);
    assert!(
        failures.len() >= inflated.len(),
        "an increase in any unit must fail the ratchet: {failures:?}"
    );
    assert!(failures.iter().any(|f| f.contains("crates/brand-new")));
}
