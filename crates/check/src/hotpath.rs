//! Interprocedural hot-path allocation analysis.
//!
//! The zero-alloc recorder and the simulator inner loops only stay fast
//! if nothing on their call paths quietly heap-allocates, locks, or does
//! IO. This pass makes that a checked property instead of a hope:
//!
//! * **Roots** are functions annotated `// mtm-hot: <key>` within three
//!   lines above their signature (the same window as fn-level
//!   `mtm-allow`s). The key names the loop for the report — `recorder`,
//!   `flow-sim`, `tuple-sim`, `acq-score`, `trial-loop`.
//! * **Cuts** are functions annotated `// mtm-cold: <reason>`: the walk
//!   does not descend into them. They mark once-per-trial seams (a whole
//!   simulated evaluation run, a journal write) whose setup cost is the
//!   sanctioned design.
//! * The pass walks the call graph's callee edges from every root
//!   ([`CallGraph::walk`] with the cuts), including **closure seams**
//!   ([`CallGraph::closure_seams`]): a closure defined in a cold
//!   function but passed to a hot callee is scanned (and its own calls
//!   walked) as if it were inlined at the callee — code runs where it is
//!   *invoked*, not where it is written.
//! * Every reached body is scanned for allocation sites (`Vec::new`,
//!   `vec!`/`format!`, `.push(`/`.collect(`/`.clone(`/`.to_string(` …,
//!   `Box::new`, `String::from`), blocking (`.lock(`) and IO
//!   (`File::open`, `.write_all(`, `println!`). `with_capacity` and
//!   `.into(` are deliberately *not* sites: pre-sizing is the sanctioned
//!   escape hatch, and `.into(` is overwhelmingly a cheap conversion.
//!
//! A site is suppressed by `// mtm-allow: alloc -- <reason>` (fn-level
//! or line-level, adjudicated exactly like taint allows, stale ones
//! included). Unsuppressed sites count into the `[alloc_hot]` ratchet
//! table per unit — units absent from the table are held at **zero**, so
//! the hot crates (`obs`, `stormsim`, `bayesopt`) simply carry no entry,
//! while numeric crates called per-proposal (`gp`, `linalg`) carry an
//! audited budget.
//!
//! Roots and cuts come resolved from the annotation table
//! ([`crate::annotations`]), which reports a marker that no longer sits
//! above a function signature as `hotpath/stale` — a detached
//! annotation silently un-guards (or un-cuts) a loop.

use std::collections::{BTreeMap, BTreeSet};

use crate::annotations::{self, Annotations, At};
use crate::ast::{call_at, skip_strict_gate, CallKind, Tree};
use crate::callgraph::CallGraph;
use crate::ratchet::SiteCounts;

/// The allow key adjudicating this pass's findings.
pub const ALLOC_KEY: &str = "alloc";

/// Method calls that allocate, lock, or perform IO. `with_capacity` is
/// deliberately absent (pre-sizing is the fix, not a finding), as is
/// `.into(` (too often a no-alloc conversion to be a useful signal).
const SITE_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "append",
    "extend",
    "extend_from_slice",
    "reserve",
    "resize",
    "collect",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "join",
    "concat",
    "lock",
    "write_all",
    "flush",
    "read_to_string",
    "read_to_end",
];

/// Macros that allocate or perform IO.
const SITE_MACROS: &[&str] = &["vec", "format", "println", "eprintln", "print", "eprint"];

/// `Type::method` paths that allocate or open IO handles.
const SITE_QUALS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("VecDeque", "new"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("File", "open"),
    ("File", "create"),
];

/// What the hot-path pass found (also feeds `analyze --hot` output).
#[derive(Debug, Default)]
pub struct HotSummary {
    /// `(key, qualified fn)` per matched `mtm-hot` root.
    pub roots: Vec<(String, String)>,
    /// Functions in the hot closure (roots included, cold cuts excluded).
    pub reached: usize,
    /// Unsuppressed sites, in deterministic (crate/file/line) order.
    pub sites: Vec<HotSite>,
}

/// One unsuppressed allocation/lock/IO site on a hot path.
#[derive(Debug)]
pub struct HotSite {
    /// Ratchet unit charged for the site.
    pub unit: String,
    /// File containing the site.
    pub file: String,
    /// Line of the site.
    pub line: usize,
    /// What was seen (for the report).
    pub what: String,
    /// Qualified function (or `… (closure)`) containing it.
    pub in_fn: String,
}

/// Run the pass: walk reachability from the table's roots, scan and
/// adjudicate sites, and charge the remainder to `counts[unit].alloc_hot`.
pub fn run(
    graph: &CallGraph,
    annots: &mut Annotations,
    counts: &mut BTreeMap<String, SiteCounts>,
) -> HotSummary {
    let mut summary = HotSummary::default();
    let cold = &annots.cold;
    for (key, root) in &annots.hot {
        if let Some(f) = graph.fns.get(*root) {
            summary.roots.push((key.clone(), f.qual.clone()));
        }
    }

    // 1. Callee walk from the roots, never descending into cold fns.
    let mut reached = BTreeMap::new();
    graph.walk(annots.hot.iter().map(|&(_, root)| root), cold, &mut reached);

    // 2. Closure seams, to a fixpoint: a closure whose receiving callee
    //    is hot runs hot even when its textual owner does not — scan its
    //    body and keep walking the calls it makes.
    let seams = graph.closure_seams();
    let mut fired: BTreeSet<usize> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (si, seam) in seams.iter().enumerate() {
            if fired.contains(&si) || reached.contains_key(&seam.owner) {
                continue;
            }
            if seam.callees.iter().any(|c| reached.contains_key(c)) {
                fired.insert(si);
                changed = true;
                let calls = graph.calls_in(&seam.body).into_iter();
                graph.walk(calls.filter(|t| !cold.contains(t)), cold, &mut reached);
            }
        }
        if !changed {
            break;
        }
    }
    summary.reached = reached.len();

    // 3. Scan and adjudicate. Reached fns first (FnId order is
    //    crate/file order), then fired seams attributed to their owner.
    let bodies = reached.keys().map(|&id| (id, None));
    let closures = fired.iter().filter_map(|&si| seams.get(si));
    for (id, closure) in bodies.chain(closures.map(|s| (s.owner, Some(&s.body)))) {
        let (Some(f), Some(unit)) = (graph.fns.get(id), graph.units.get(id)) else {
            continue;
        };
        let in_fn = match closure {
            Some(_) => format!("{} (closure)", f.qual),
            None => f.qual.clone(),
        };
        let mut sites = Vec::new();
        scan_sites(closure.unwrap_or(&f.body), &mut sites);
        for (line, what) in sites {
            if annotations::covers(&mut annots.allows, ALLOC_KEY, &[At::in_fn(f, line)]) {
                continue;
            }
            counts.entry(unit.clone()).or_default().alloc_hot += 1;
            summary.sites.push(HotSite {
                unit: unit.clone(),
                file: f.file.clone(),
                line,
                what,
                in_fn: in_fn.clone(),
            });
        }
    }
    summary
}

/// Scan token trees for allocation/lock/IO sites, skipping
/// strict-invariants-gated statements like the panic-path scan does.
fn scan_sites(trees: &[Tree], out: &mut Vec<(usize, String)>) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Some(next) = skip_strict_gate(trees, i) {
            i = next;
            continue;
        }
        if let Some(Tree::Group(g)) = trees.get(i) {
            scan_sites(&g.trees, out);
        } else if let Some(call) = call_at(trees, i) {
            let name = call.name.text.as_str();
            let what = match (call.kind, call.qual) {
                (CallKind::Macro, _) if SITE_MACROS.contains(&name) => Some(match name {
                    "vec" | "format" => format!("`{name}!` allocates"),
                    _ => format!("`{name}!` does IO"),
                }),
                (CallKind::Method, _) if SITE_METHODS.contains(&name) => Some(match name {
                    "lock" => "`.lock()` blocks".to_string(),
                    "write_all" | "flush" | "read_to_string" | "read_to_end" => {
                        format!("`.{name}()` does IO")
                    }
                    _ => format!("`.{name}(…)` may allocate"),
                }),
                (CallKind::Path, Some(ty)) if SITE_QUALS.contains(&(ty.text.as_str(), name)) => {
                    Some(format!("`{}::{name}` allocates", ty.text))
                }
                _ => None,
            };
            out.extend(what.map(|what| (call.name.line, what)));
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze_source;

    #[test]
    fn hot_root_flags_transitive_allocation() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn hot() { helper(); }
fn helper() { let mut v = Vec::new(); v.push(1); }
fn unreached() { let _ = Vec::new(); }
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        // `Vec::new` + `.push(` in helper; `unreached` is not charged.
        assert_eq!(a.counts["crates/fixture"].alloc_hot, 2);
        assert_eq!(a.hot.roots.len(), 1);
        assert_eq!(a.hot.roots[0].0, "inner-loop");
        assert!(a.hot.sites.iter().all(|s| s.line == 4));
    }

    #[test]
    fn alloc_allow_suppresses_and_counts_as_used() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn hot(out: &mut Vec<u32>) {
    // mtm-allow: alloc -- amortized append, capacity plateaus
    out.push(1);
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn stale_hot_and_cold_annotations_are_errors() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: detached
static X: u32 = 0;

struct S;

// mtm-cold: detached too
static Y: u32 = 0;
static Z: u32 = 0;

fn far_away() {}
"#,
        );
        let rendered = a.report.render();
        assert_eq!(rendered.matches("hotpath/stale").count(), 2, "{rendered}");
    }

    #[test]
    fn cold_cut_stops_the_walk() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn hot() { per_trial_setup(); }
// mtm-cold: one setup per trial, allocates by design
fn per_trial_setup() { let _ = Vec::new(); format!("x"); }
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn closure_defined_cold_but_invoked_hot_is_caught() {
        // `driver` is never hot, but the closure it builds is handed to
        // the hot `apply`, so its `format!` (and the allocation inside
        // the function the closure calls) must be charged.
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn apply(f: impl Fn() -> String) { let _ = f(); }
fn driver() { apply(|| label(7)); }
fn label(x: u32) -> String { format!("{x}") }
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].alloc_hot, 1);
        assert_eq!(a.hot.sites[0].line, 5);
        assert!(a.hot.sites[0].in_fn.contains("label"), "{:?}", a.hot.sites);
    }

    #[test]
    fn closure_body_sites_attribute_to_the_owner() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn apply(f: impl Fn() -> String) { let _ = f(); }
fn driver() { apply(|| format!("inline")); }
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].alloc_hot, 1);
        assert!(
            a.hot.sites[0].in_fn.contains("driver") && a.hot.sites[0].in_fn.contains("closure"),
            "{:?}",
            a.hot.sites
        );
    }

    #[test]
    fn trait_seam_resolves_by_bare_name() {
        // A hot generic loop calling `r.record(…)` must reach every
        // workspace `record` impl — the conservative trait-seam rule.
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
trait Rec { fn record(&mut self, x: u32); }
struct Mem { xs: Vec<u32> }
impl Rec for Mem {
    fn record(&mut self, x: u32) { self.xs.push(x); }
}
// mtm-hot: inner-loop
fn hot<R: Rec>(r: &mut R) { r.record(1); }
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].alloc_hot, 1);
        assert!(a.hot.sites[0].in_fn.contains("record"), "{:?}", a.hot.sites);
    }

    #[test]
    fn with_capacity_and_into_are_not_sites() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-hot: inner-loop
fn hot(n: usize) -> Vec<u32> {
    let v: Vec<u32> = Vec::with_capacity(n);
    let w: u64 = 3u32.into();
    let _ = w;
    v
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn strict_invariant_guards_are_skipped() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
// mtm-hot: inner-loop
fn hot(xs: &[f64]) {
    #[cfg(feature = \"strict-invariants\")]
    assert_finite(&format!(\"hot {}\", xs.len()));
    let _ = xs;
}
fn assert_finite(_s: &str) {}
",
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn malformed_hot_key_is_reported() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
// mtm-hot:
fn hot() {}
",
        );
        assert!(
            a.report.render().contains("annotation/malformed"),
            "{}",
            a.report.render()
        );
    }
}
