//! Analyze-pass self-tests over the planted fixture files: every
//! planted violation must be flagged at its exact line, and the clean
//! fixture must stay silent.

use mtm_check::analyze;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn panic_site_fixture_is_counted_by_ast_pass() {
    let a = analyze::analyze_source("crates/fixture/src/lib.rs", &fixture("panic_site.rs"));
    // unwrap, expect and panic! each counted once; the unwrap inside
    // #[cfg(test)] is not.
    assert_eq!(a.counts["crates/fixture"].panic_sites, 3, "{:?}", a.counts);
}

#[test]
fn float_eq_fixture_is_flagged_by_ast_pass() {
    let a = analyze::analyze_source("crates/fixture/src/lib.rs", &fixture("float_eq.rs"));
    let rendered = a.report.render();
    // `== 0.0` (line 4) and `!= 1.0e-9` (line 8) flagged; the
    // `mtm-allow: float-eq` sentinel and the integer compare are not.
    assert_eq!(rendered.matches("float/eq").count(), 2, "{rendered}");
    assert!(
        rendered.contains("crates/fixture/src/lib.rs:4:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("crates/fixture/src/lib.rs:8:"),
        "{rendered}"
    );
}

#[test]
fn clean_fixture_is_silent_everywhere() {
    let a = analyze::analyze_source("crates/fixture/src/lib.rs", &fixture("clean.rs"));
    assert!(a.report.is_empty(), "unexpected: {}", a.report.render());
}
