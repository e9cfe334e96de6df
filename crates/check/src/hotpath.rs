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
//! * The pass walks the call graph's callee edges from every root,
//!   including **closure seams** ([`CallGraph::closure_seams`]): a
//!   closure defined in a cold function but passed to a hot callee is
//!   scanned (and its own calls walked) as if it were inlined at the
//!   callee — code runs where it is *invoked*, not where it is written.
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
//! Stale annotations are errors: an `mtm-hot`/`mtm-cold` comment that no
//! longer sits above a function signature reports `hotpath/stale` — a
//! detached annotation silently un-guards (or un-cuts) a loop.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{CrateAst, Delim, Tok, TokKind, Tree};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diag, Report};
use crate::ratchet::SiteCounts;
use crate::taint::{self, Allow};

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

/// Run the pass: resolve annotations, walk reachability, scan and
/// adjudicate sites, and charge the remainder to `counts[unit].alloc_hot`.
pub fn run(
    graph: &CallGraph,
    crates: &[CrateAst],
    allows: &mut [Allow],
    report: &mut Report,
    counts: &mut BTreeMap<String, SiteCounts>,
) -> HotSummary {
    let mut summary = HotSummary::default();

    // 1. Annotation collection. Only the first line of a wrapped comment
    //    carries the marker; continuation lines are plain text.
    let mut hot_annots: Vec<(String, usize, String)> = Vec::new();
    let mut cold_annots: Vec<(String, usize)> = Vec::new();
    for krate in crates {
        for file in &krate.files {
            for c in &file.comments {
                let text = c.text.trim();
                if let Some(rest) = text.strip_prefix("mtm-hot:") {
                    let key = rest.trim().to_string();
                    if key.is_empty() {
                        report.push(Diag::new(
                            "annotation/malformed",
                            &file.rel,
                            c.line,
                            "mtm-hot annotation needs a key naming the hot loop",
                        ));
                    } else {
                        hot_annots.push((file.rel.clone(), c.line, key));
                    }
                } else if let Some(rest) = text.strip_prefix("mtm-cold:") {
                    if rest.trim().is_empty() {
                        report.push(Diag::new(
                            "annotation/malformed",
                            &file.rel,
                            c.line,
                            "mtm-cold annotation needs a `<reason>`",
                        ));
                    } else {
                        cold_annots.push((file.rel.clone(), c.line));
                    }
                }
            }
        }
    }

    // 2. Match annotations to the function directly below (within the
    //    same three-line window as fn-level allows). Unmatched = stale.
    let find_fn = |file: &str, line: usize| -> Option<FnId> {
        graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.line > line && f.line - line <= 3)
            .min_by_key(|(_, f)| f.line)
            .map(|(id, _)| id)
    };
    let mut roots: Vec<FnId> = Vec::new();
    for (file, line, key) in &hot_annots {
        match find_fn(file, *line) {
            Some(id) => {
                summary
                    .roots
                    .push((key.clone(), graph.fns[id].qual.clone()));
                roots.push(id);
            }
            None => report.push(Diag::new(
                "hotpath/stale",
                file,
                *line,
                format!(
                    "mtm-hot annotation (`{key}`) is not within 3 lines above a \
                     non-test function signature — reattach or remove it"
                ),
            )),
        }
    }
    let mut cold: BTreeSet<FnId> = BTreeSet::new();
    for (file, line) in &cold_annots {
        match find_fn(file, *line) {
            Some(id) => {
                cold.insert(id);
            }
            None => report.push(Diag::new(
                "hotpath/stale",
                file,
                *line,
                "mtm-cold annotation is not within 3 lines above a non-test \
                 function signature — reattach or remove it"
                    .to_string(),
            )),
        }
    }
    for &r in &roots {
        if cold.contains(&r) {
            let f = &graph.fns[r];
            report.push(Diag::new(
                "hotpath/conflict",
                &f.file,
                f.line,
                format!("`{}` is annotated both mtm-hot and mtm-cold", f.qual),
            ));
        }
    }

    // 3. Callee-closure from the roots, never descending into cold fns.
    let mut reached: BTreeSet<FnId> = BTreeSet::new();
    let mut queue: Vec<FnId> = Vec::new();
    for &r in &roots {
        if reached.insert(r) {
            queue.push(r);
        }
    }
    let bfs = |reached: &mut BTreeSet<FnId>, queue: &mut Vec<FnId>| {
        while let Some(f) = queue.pop() {
            for &c in &graph.callees[f] {
                if !cold.contains(&c) && reached.insert(c) {
                    queue.push(c);
                }
            }
        }
    };
    bfs(&mut reached, &mut queue);

    // 4. Closure seams, to a fixpoint: a closure whose receiving callee
    //    is hot runs hot even when its textual owner does not — scan its
    //    body and keep walking the calls it makes.
    let seams = graph.closure_seams();
    let mut fired: BTreeSet<usize> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (si, seam) in seams.iter().enumerate() {
            if fired.contains(&si) || reached.contains(&seam.owner) {
                continue;
            }
            if seam.callees.iter().any(|c| reached.contains(c)) {
                fired.insert(si);
                changed = true;
                for t in graph.calls_in(&seam.body) {
                    if !cold.contains(&t) && reached.insert(t) {
                        queue.push(t);
                    }
                }
                bfs(&mut reached, &mut queue);
            }
        }
        if !changed {
            break;
        }
    }
    summary.reached = reached.len();

    // 5. Scan and adjudicate. Reached fns first (FnId order is
    //    crate/file order), then fired seams attributed to their owner.
    for &id in &reached {
        let f = &graph.fns[id];
        let mut sites = Vec::new();
        scan_sites(&f.body, &mut sites);
        adjudicate(
            &graph.units[id],
            &f.file,
            f.line,
            f.end_line,
            &f.qual,
            sites,
            allows,
            counts,
            &mut summary,
        );
    }
    for (si, seam) in seams.iter().enumerate() {
        if !fired.contains(&si) {
            continue;
        }
        let owner = &graph.fns[seam.owner];
        let mut sites = Vec::new();
        scan_sites(&seam.body, &mut sites);
        adjudicate(
            &graph.units[seam.owner],
            &owner.file,
            owner.line,
            owner.end_line,
            &format!("{} (closure)", owner.qual),
            sites,
            allows,
            counts,
            &mut summary,
        );
    }
    summary
}

/// Suppress sites covered by an `alloc` allow; charge the rest.
#[allow(clippy::too_many_arguments)]
fn adjudicate(
    unit: &str,
    file: &str,
    fn_line: usize,
    fn_end: usize,
    in_fn: &str,
    sites: Vec<(usize, String)>,
    allows: &mut [Allow],
    counts: &mut BTreeMap<String, SiteCounts>,
    summary: &mut HotSummary,
) {
    for (line, what) in sites {
        if let Some(a) = allows
            .iter_mut()
            .find(|a| taint::allow_covers(a, ALLOC_KEY, file, line, fn_line, fn_end))
        {
            a.used = true;
            continue;
        }
        counts.entry(unit.to_string()).or_default().alloc_hot += 1;
        summary.sites.push(HotSite {
            unit: unit.to_string(),
            file: file.to_string(),
            line,
            what,
            in_fn: in_fn.to_string(),
        });
    }
}

/// Scan token trees for allocation/lock/IO sites, skipping
/// strict-invariants-gated statements like the panic-path scan does.
fn scan_sites(trees: &[Tree], out: &mut Vec<(usize, String)>) {
    let tok_at = |i: usize| -> Option<&Tok> { trees.get(i).and_then(Tree::tok) };
    let mut i = 0usize;
    while i < trees.len() {
        // `#[cfg(feature = "strict-invariants")] <statement>` is the
        // assertion layer: skip the attribute and its statement.
        if tok_at(i).is_some_and(|t| t.is_punct("#")) {
            if let Some(Tree::Group(attr)) = trees.get(i + 1) {
                if attr.delim == Delim::Bracket && crate::analyze::attr_is_strict_gate(attr) {
                    i += 2;
                    while i < trees.len() {
                        match &trees[i] {
                            Tree::Tok(t) if t.is_punct(";") => {
                                i += 1;
                                break;
                            }
                            Tree::Group(g) if g.delim == Delim::Brace => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    continue;
                }
            }
        }
        match &trees[i] {
            Tree::Group(g) => scan_sites(&g.trees, out),
            Tree::Tok(tok) if tok.kind == TokKind::Ident => {
                let name = tok.text.as_str();
                let next_paren =
                    matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == Delim::Paren);
                let next_bang = tok_at(i + 1).is_some_and(|t| t.is_punct("!"));
                let prev = i.checked_sub(1).and_then(|j| trees[j].tok());
                if next_bang && SITE_MACROS.contains(&name) {
                    out.push((tok.line, describe_macro(name)));
                } else if next_paren && prev.is_some_and(|p| p.is_punct(".")) {
                    if SITE_METHODS.contains(&name) {
                        out.push((tok.line, describe_method(name)));
                    }
                } else if next_paren && prev.is_some_and(|p| p.is_punct("::")) {
                    let ty = i
                        .checked_sub(2)
                        .and_then(|j| trees[j].tok())
                        .filter(|t| t.kind == TokKind::Ident);
                    if let Some(ty) = ty {
                        if SITE_QUALS.contains(&(ty.text.as_str(), name)) {
                            out.push((tok.line, format!("`{}::{name}` allocates", ty.text)));
                        }
                    }
                }
            }
            Tree::Tok(_) => {}
        }
        i += 1;
    }
}

fn describe_macro(name: &str) -> String {
    match name {
        "vec" | "format" => format!("`{name}!` allocates"),
        _ => format!("`{name}!` does IO"),
    }
}

fn describe_method(name: &str) -> String {
    match name {
        "lock" => "`.lock()` blocks".to_string(),
        "write_all" | "flush" | "read_to_string" | "read_to_end" => {
            format!("`.{name}()` does IO")
        }
        _ => format!("`.{name}(…)` may allocate"),
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
