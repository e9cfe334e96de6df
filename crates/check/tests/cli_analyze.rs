//! End-to-end test of the `mtm-check` binary over fixture workspaces
//! (`fixtures/clean_ws`, `fixtures/tainted_ws`,
//! `fixtures/primitive_from_ws`, `fixtures/const_float_div_ws`): exit
//! code 0 on the clean ones, 1 with exact `file:line` diagnostics on the
//! planted one, and 2 on bad usage or a missing workspace root.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_ws(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_in(ws: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtm-check"))
        .args(args)
        .current_dir(fixture_ws(ws))
        .output()
        .expect("run mtm-check")
}

#[test]
fn clean_workspace_exits_zero() {
    let out = run_in("clean_ws", &["analyze"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("OK (0 taint/float findings"), "{stdout}");
    // The hot root's allowed `push` must neither count nor go stale.
    assert!(stdout.contains("0 hot-alloc"), "{stdout}");
    assert!(
        stdout.contains("0 blocking-under-lock, 0 lock-order sites"),
        "{stdout}"
    );
}

#[test]
fn planted_workspace_exits_one_with_exact_diagnostics() {
    let out = run_in("tainted_ws", &["analyze"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    for needle in [
        "crates/demo/src/lib.rs:14: [taint/wall-clock]",
        "crates/demo/src/lib.rs:15: [taint/wall-clock]",
        "crates/demo/src/lib.rs:20: [float/eq]",
        "crates/demo/src/lib.rs:12: [annotation/stale]",
        "crates/demo/src/lib.rs:23: [annotation/missing-reason]",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    // Exactly the five planted findings, no more.
    assert!(stdout.contains("5 finding(s)"), "{stdout}");
}

#[test]
fn hot_closure_chain_is_caught_and_ratcheted() {
    // `labels` never runs hot itself, but it hands a closure to the hot
    // `apply`; the seam must charge the closure's allocations to
    // `labels (closure)` and the un-budgeted count must fail the ratchet.
    let out = run_in("tainted_ws", &["analyze", "--hot"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("hot root [inner-loop] hot_loop"),
        "{stdout}"
    );
    for needle in [
        "`.push(…)` may allocate in `labels (closure)`",
        "`format!` allocates in `labels (closure)`",
        "ratchet: [alloc_hot] crates/demo: 2 sites, not present",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

#[test]
fn primitive_conversion_does_not_reach_workspace_from_impls() {
    // The hot root calls `u64::from` beside an allocating workspace
    // `impl From<…>`: the primitive's conversion must not resolve to it.
    let out = run_in("primitive_from_ws", &["analyze", "--hot"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("hot root [widen] widen"), "{stdout}");
    assert!(!stdout.contains("hot site"), "{stdout}");
    assert!(stdout.contains("0 hot-alloc"), "{stdout}");
}

#[test]
fn float_const_divisions_are_not_div_sites() {
    // The only float evidence of each division is a module-level
    // `const … : f64` or `static … : f32`; the fixture's `[div_sites]`
    // budget is empty, so one miscounted division fails the ratchet.
    let out = run_in("const_float_div_ws", &["analyze"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains(" 0 div,"), "{stdout}");
}

#[test]
fn bad_usage_exits_two() {
    let out = run_in("clean_ws", &["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_workspace_root_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_mtm-check"))
        .arg("analyze")
        .current_dir("/")
        .output()
        .expect("run mtm-check");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("workspace root"), "{stderr}");
}
