//! The `mtm-check` command-line tool.
//!
//! ```text
//! cargo run -p mtm-check -- analyze [--hot] [--locks] [--explain lock]
//! cargo run -p mtm-check -- invariants
//! cargo run -p mtm-check -- determinism
//! cargo run -p mtm-check -- coverage
//! cargo run -p mtm-check -- all
//! ```
//!
//! * `analyze` — AST-backed static analysis: determinism taint (with
//!   `mtm-allow` annotation adjudication), panic/index/div/alloc-hot
//!   budgets against `check/ratchet.toml`, float sanity, the hot-path
//!   allocation pass, and the lock-region pass. Budgets that can fall
//!   are printed as `ratchet (tightenable)`; lower them by hand, with a
//!   comment. `--hot` prints the hot-path roots and every
//!   flagged site; `--locks` prints the named locks, the
//!   acquired-while-holding graph and every flagged blocking site;
//!   `--explain lock` documents the lock-region model and annotation
//!   grammar alongside the live lock graph.
//! * `invariants` — run guarded crate test suites with
//!   `--features strict-invariants`.
//! * `determinism` — build the probe and require bit-identical output
//!   across two runs.
//! * `coverage` — run `cargo llvm-cov` and enforce the per-unit line
//!   coverage floors in `check/ratchet.toml` `[coverage_floor]`
//!   (skipped with a notice when cargo-llvm-cov is not installed).
//! * `all` — every pass above (analyze, invariants, determinism,
//!   coverage).
//!
//! Exit code 0 means the pass(es) succeeded; 1 means violations or a
//! nondeterministic run; 2 means the tool itself could not run (bad
//! usage or no workspace root).

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use mtm_check::analyze;
use mtm_check::coverage;
use mtm_check::determinism;
use mtm_check::ratchet::Ratchet;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("");
    let rest: Vec<&str> = it.collect();
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mtm-check: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match cmd {
        "analyze" => {
            let explain = rest
                .iter()
                .position(|a| *a == "--explain")
                .map(|i| rest.get(i + 1).copied().unwrap_or(""));
            if let Some(topic) = explain {
                if topic != "lock" {
                    eprintln!("usage: mtm-check analyze --explain lock");
                    return ExitCode::from(2);
                }
                print_lock_explainer();
            }
            run_analyze(
                &root,
                rest.contains(&"--hot"),
                rest.contains(&"--locks") || explain == Some("lock"),
            )
        }
        "invariants" => run_invariants(),
        "determinism" => run_determinism(),
        "coverage" => run_coverage(&root),
        "all" => {
            let analyze_ok = run_analyze(&root, false, false);
            let inv_ok = run_invariants();
            let det_ok = run_determinism();
            let cov_ok = run_coverage(&root);
            analyze_ok && inv_ok && det_ok && cov_ok
        }
        _ => {
            eprintln!(
                "usage: mtm-check <analyze [--hot] [--locks] [--explain lock] | invariants | determinism | coverage | all>"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Find the workspace root: walk up from the current directory to the
/// first `Cargo.toml` containing a `[workspace]` table.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml above the current directory".into());
        }
    }
}

/// The annotation grammar and model of the lock-region pass, for
/// `analyze --explain lock`.
fn print_lock_explainer() {
    println!(
        "\
mtm-check analyze --explain lock

  The lock-region pass statically checks held-lock hygiene:

  * Acquisitions: `.lock()` / `.read()` / `.write()` with empty argument
    lists, plus calls to `// mtm-lock: <name>`-annotated lock functions
    (e.g. serve's `lock_core` names the `core` lock). Locks unify by
    name: a line-level `// mtm-lock: <name>` directly above the
    acquisition wins, then the receiver identifier, then `file:line`.
  * Regions: the guard is live from the acquisition to a same-level
    `drop(<guard>)` or the end of the enclosing scope (statement-initial
    `let`), else to the end of the statement. Over-approximated: match
    arms, early returns and conditional drops stay inside the region.
  * Lints:
      blocking-under-lock  file/socket IO, flush/sync, thread join,
                           sleeps, IO macros, or reaching an `mtm-hot`
                           root, textually or through any function
                           reachable from calls made under the guard.
                           Charged to [blocking_under_lock] in
                           check/ratchet.toml; absent units are held at
                           zero (crates/serve is pinned there).
      lock-order cycles    every acquisition inside a held region adds
                           an acquired-while-holding edge; any cycle
                           (double-lock self-cycles included) charges
                           [lock_order]. Never allow-suppressible.
      guard-across-wait    a guard other than the condvar's own held
                           across `Condvar::wait*` is a hard
                           `lock/guard-across-wait` diagnostic.
  * Sanctioning: `// mtm-allow: lock -- <reason>` at the acquisition
    covers the whole region; at the blocking site it covers that site
    for every region reaching it. Stale `mtm-lock:`/`mtm-allow: lock`
    annotations are hard errors (`lockregion/stale`, `annotation/stale`).

  Example: journal append hoisted out of serve's dispatch lock —

      let line = {{
          let mut core = self.lock_core();   // region opens
          core.transition(session)           // decide under the lock
      }};                                    // region closes
      self.store.meta_append(session, &line) // IO outside the guard
"
    );
}

/// The AST pass: taint + float findings are hard failures; panic/index/
/// div/alloc-hot/lock counts ratchet against `check/ratchet.toml`.
fn run_analyze(root: &Path, show_hot: bool, show_locks: bool) -> bool {
    println!(
        "mtm-check analyze: parsing workspace crates under {}",
        root.display()
    );
    let analysis = match analyze::analyze_workspace(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mtm-check analyze: {e}");
            return false;
        }
    };

    if show_hot {
        println!(
            "mtm-check analyze: hot-path pass — {} root(s), {} function(s) reached",
            analysis.hot.roots.len(),
            analysis.hot.reached
        );
        for (key, qual) in &analysis.hot.roots {
            println!("  hot root [{key}] {qual}");
        }
        for site in &analysis.hot.sites {
            println!(
                "  hot site [{}] {}:{}: {} in `{}`",
                site.unit, site.file, site.line, site.what, site.in_fn
            );
        }
    }

    if show_locks {
        println!(
            "mtm-check analyze: lock-region pass — {} named lock(s), {} region(s)",
            analysis.lock.locks.len(),
            analysis.lock.regions
        );
        for lock in &analysis.lock.locks {
            println!("  lock `{lock}`");
        }
        for edge in &analysis.lock.edges {
            println!(
                "  order edge [{}] `{}` -> `{}` at {}:{}",
                edge.unit, edge.holder, edge.acquired, edge.file, edge.line
            );
        }
        for cycle in &analysis.lock.cycles {
            println!("  lock-order {cycle}");
        }
        for site in &analysis.lock.sites {
            println!(
                "  lock site [{}] {}:{}: {} in `{}`",
                site.unit, site.file, site.line, site.what, site.in_fn
            );
        }
    }

    let mut ok = true;
    if !analysis.report.is_empty() {
        print!("{}", analysis.report.render());
        println!(
            "mtm-check analyze: {} finding(s) — fix, or annotate sanctioned \
             sites with `// mtm-allow: <key> -- <reason>`",
            analysis.report.len()
        );
        ok = false;
    }

    let ratchet_path = root.join("check/ratchet.toml");
    let recorded = match fs::read_to_string(&ratchet_path) {
        Ok(text) => match Ratchet::parse(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mtm-check analyze: {e}");
                return false;
            }
        },
        Err(e) => {
            eprintln!(
                "mtm-check analyze: read {}: {e} (the budgets are kept by hand: \
                 restore the file; lower a budget by hand, with a comment)",
                ratchet_path.display()
            );
            return false;
        }
    };
    let (failures, tighten) = recorded.compare(&analysis.counts);
    for f in &failures {
        println!("  ratchet: {f}");
    }
    for t in &tighten {
        println!("  ratchet (tightenable): {t}");
    }
    if !failures.is_empty() {
        println!(
            "mtm-check analyze: ratchet violated — remove the new sites or \
             justify lowering elsewhere (`analyze --hot` lists hot-path \
             sites, `analyze --locks` lists held-lock sites)"
        );
        ok = false;
    }
    if ok {
        let totals = analysis
            .counts
            .values()
            .fold((0, 0, 0, 0, 0, 0), |(p, x, d, a, b, l), c| {
                (
                    p + c.panic_sites,
                    x + c.index_sites,
                    d + c.div_sites,
                    a + c.alloc_hot,
                    b + c.blocking_under_lock,
                    l + c.lock_order,
                )
            });
        println!(
            "mtm-check analyze: OK (0 taint/float findings; within ratchet: \
             {} panic, {} index, {} div, {} hot-alloc, {} blocking-under-lock, \
             {} lock-order sites)",
            totals.0, totals.1, totals.2, totals.3, totals.4, totals.5
        );
    }
    ok
}

/// Run each guarded crate's test suite with `strict-invariants` enabled,
/// so every inserted guard actually executes against real workloads.
fn run_invariants() -> bool {
    let crates = [
        "mtm-linalg",
        "mtm-gp",
        "mtm-stormsim",
        "mtm-bayesopt",
        "mtm-runner",
    ];
    let mut ok = true;
    for krate in crates {
        println!("mtm-check invariants: cargo test -p {krate} --features strict-invariants");
        let status = Command::new("cargo")
            .args(["test", "-q", "-p", krate, "--features", "strict-invariants"])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("mtm-check invariants: {krate} failed with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("mtm-check invariants: cargo: {e}");
                ok = false;
            }
        }
    }
    if ok {
        println!("mtm-check invariants: OK (all guarded test suites green)");
    }
    ok
}

/// Enforce the `[coverage_floor]` line-coverage floors via
/// `cargo llvm-cov`. The llvm-cov subcommand is an external cargo
/// extension, so its absence is a skip (with a notice), not a failure —
/// CI installs it and gets the hard gate.
fn run_coverage(root: &Path) -> bool {
    let ratchet_path = root.join("check/ratchet.toml");
    let floors = match fs::read_to_string(&ratchet_path).map(|t| Ratchet::parse(&t)) {
        Ok(Ok(r)) => r
            .tables
            .get(coverage::COVERAGE_TABLE)
            .cloned()
            .unwrap_or_default(),
        Ok(Err(e)) => {
            eprintln!("mtm-check coverage: {e}");
            return false;
        }
        Err(e) => {
            eprintln!("mtm-check coverage: read {}: {e}", ratchet_path.display());
            return false;
        }
    };
    if floors.is_empty() {
        println!("mtm-check coverage: OK (no [coverage_floor] entries in check/ratchet.toml)");
        return true;
    }
    let probe = Command::new("cargo")
        .args(["llvm-cov", "--version"])
        .output();
    if !probe.map(|o| o.status.success()).unwrap_or(false) {
        println!(
            "mtm-check coverage: skipped ({} floor(s) recorded, but cargo-llvm-cov \
             is not installed; `cargo install cargo-llvm-cov` to enforce locally)",
            floors.len()
        );
        return true;
    }
    println!("mtm-check coverage: cargo llvm-cov --workspace --json --summary-only");
    let output = Command::new("cargo")
        .args(["llvm-cov", "--workspace", "--json", "--summary-only"])
        .current_dir(root)
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            eprintln!(
                "mtm-check coverage: cargo llvm-cov failed with {}",
                o.status
            );
            return false;
        }
        Err(e) => {
            eprintln!("mtm-check coverage: cargo: {e}");
            return false;
        }
    };
    let files = coverage::parse_llvm_cov_json(&String::from_utf8_lossy(&output.stdout));
    let (failures, report) = coverage::check_floors(&floors, &files);
    for line in &report {
        println!("  coverage: {line}");
    }
    for f in &failures {
        println!("  coverage: {f}");
    }
    if failures.is_empty() {
        println!("mtm-check coverage: OK ({} floor(s) met)", floors.len());
        true
    } else {
        println!(
            "mtm-check coverage: {} floor(s) violated — add tests or justify \
             raising coverage elsewhere (floors never go down)",
            failures.len()
        );
        false
    }
}

/// Build the probe once, then run it twice and require bit-identical
/// stdout.
fn run_determinism() -> bool {
    println!("mtm-check determinism: building probe");
    let build = Command::new("cargo")
        .args(["build", "-q", "-p", "mtm", "--bin", "determinism_probe"])
        .status();
    match build {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("mtm-check determinism: probe build failed with {s}");
            return false;
        }
        Err(e) => {
            eprintln!("mtm-check determinism: cargo: {e}");
            return false;
        }
    }
    println!("mtm-check determinism: running probe twice (flow sim, tuple sim, 10-step BO)");
    let outcome = determinism::run_twice_and_diff(
        "cargo",
        &["run", "-q", "-p", "mtm", "--bin", "determinism_probe"],
    );
    match outcome {
        Ok(diff) if diff.identical => {
            println!(
                "mtm-check determinism: OK ({} lines of metrics bit-identical across runs)",
                diff.lines
            );
            true
        }
        Ok(diff) => {
            if let Some((line, a, b)) = diff.first_divergence {
                eprintln!("mtm-check determinism: NONDETERMINISM at output line {line}:");
                eprintln!("  run A: {a}");
                eprintln!("  run B: {b}");
            }
            false
        }
        Err(e) => {
            eprintln!("mtm-check determinism: {e}");
            false
        }
    }
}
