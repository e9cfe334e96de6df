//! Correctness tooling for the mtm workspace.
//!
//! Three passes, exposed through the `mtm-check` binary
//! (`cargo run -p mtm-check -- <subcommand>`):
//!
//! * [`analyze`] — the AST-backed static analyzer: a self-contained
//!   parser ([`ast`]) feeds a workspace call graph ([`callgraph`]) and
//!   one annotation table ([`annotations`]: every `mtm-allow`/`mtm-hot`/
//!   `mtm-cold`/`mtm-lock` comment, read once, and the one allow
//!   adjudicator) shared by five analyses — determinism taint
//!   ([`taint`]: nondeterminism sources reaching journaled/measured
//!   values, adjudicated by `// mtm-allow: <key> -- <reason>`
//!   annotations), panic-path counting
//!   (`.unwrap()`/indexing/integer-div budgets in `check/ratchet.toml`,
//!   counts only go down), float sanity (`==`/`!=` on floats,
//!   `partial_cmp().unwrap()`, order-sensitive parallel reductions), the
//!   hot-path allocation pass ([`hotpath`]: alloc/lock/IO sites
//!   reachable from `// mtm-hot: <key>` roots, ratcheted per crate in
//!   the `[alloc_hot]` table), and the lock-region pass ([`lockregion`]:
//!   blocking-under-lock, lock-order cycles and guard-across-wait over
//!   `// mtm-lock: <name>` named locks, ratcheted in
//!   `[blocking_under_lock]` / `[lock_order]`).
//! * [`invariants`] — runtime guard functions (finite, symmetric, PSD,
//!   monotonic time) that `linalg`/`gp`/`stormsim`/`bayesopt` re-export
//!   and call behind their `strict-invariants` feature.
//! * [`determinism`] — run-twice-and-diff support: the simulators and a
//!   short BO loop must produce bit-identical output under a fixed seed.
//!
//! The library deliberately has no dependencies (std only) so the numeric
//! crates can depend on it without cycles or bloat.

pub mod analyze;
pub mod annotations;
pub mod ast;
pub mod callgraph;
pub mod coverage;
pub mod determinism;
pub mod diag;
pub mod hotpath;
pub mod invariants;
pub mod lockregion;
pub mod ratchet;
pub mod taint;
