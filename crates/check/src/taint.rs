//! Determinism-taint analysis.
//!
//! The repo's scientific claim rests on bitwise determinism: serial,
//! parallel and resumed runs of the same experiment must journal the
//! same bytes. This pass flags every *nondeterminism source* that can
//! reach *journaled or measured values*, so a stray `Instant::now()` or
//! `HashMap` iteration cannot silently contaminate results.
//!
//! ## Model
//!
//! **Sinks** are the functions that construct journaled/measured values:
//! struct literals of the record types ([`SINK_TYPES`]: `TrialRecord`,
//! `Header`, `StepRecord`, `ExperimentResult`, …), `Record::…(…)` enum
//! construction, and every impl of the `Measure` trait's
//! `measure_batch` method (the seam all measured throughput crosses).
//!
//! **Sources** are syntactic nondeterminism introductions, each tagged
//! with an allow key: `Instant::now`/`SystemTime::now`/`.elapsed()`
//! (`wall-clock`), `thread_rng`/`rand::random`/`from_entropy`/`OsRng`
//! (`rng`), iteration over `HashMap`/`HashSet`-typed fields or locals
//! (`hash-iter`), `thread::current()`/`ThreadId` (`thread-id`), and
//! pointer/address observation (`{:p}`, `addr_of`, `as *const` casts —
//! `addr`).
//!
//! **Propagation** is function-level over the call graph: a source is
//! reportable when it occurs inside the *callee closure* of a sink
//! function — the sink itself or anything it (transitively) calls, i.e.
//! any function whose return values or side effects are in scope while a
//! record is being built. This is deliberately conservative (no
//! per-value dataflow), so sanctioned sites carry an explicit, audited
//! annotation instead of being silently dropped:
//!
//! ```text
//! // mtm-allow: wall-clock -- optimizer_time_s is the sanctioned Fig. 7 metric
//! ```
//!
//! An annotation above a `fn` signature covers the whole function; one
//! inside a body covers its own line and the next (the one adjudicator,
//! [`crate::annotations::covers`]). Every annotation must carry a
//! `-- reason` and must suppress at least one reportable source
//! (otherwise it is reported as `annotation/stale` — dead allows rot the
//! audit trail).

use std::collections::{BTreeMap, BTreeSet};

use crate::annotations::{self, Allow, At};
use crate::ast::{self, call_at, CallKind, CrateAst, Delim, Tok, TokKind, Tree};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diag, Report};

/// Struct types whose construction marks a function as a sink.
pub const SINK_TYPES: &[&str] = &[
    "Header",
    "TrialRecord",
    "ConfirmRecord",
    "PassDone",
    "StepRecord",
    "PassResult",
    "ExperimentResult",
    "Cell",
    "Grid",
];

/// Enum types whose variant construction (`Record::Trial(..)`) marks a
/// sink. Kept separate from [`SINK_TYPES`] so common method paths like
/// `Cell::new` never count as construction. `Event` covers the mtm-obs
/// trace schema: recording a wall-clock- or rng-tainted value into a
/// trace is exactly the leak the determinism contract forbids.
pub const SINK_ENUMS: &[&str] = &["Record", "Event"];

/// Methods that observe collection iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// One nondeterminism-source occurrence in a function body.
#[derive(Debug, Clone)]
pub struct Source {
    /// Allow key classifying the source.
    pub key: &'static str,
    /// What was seen, for the message (e.g. `Instant::now`).
    pub what: String,
    /// Line of the occurrence.
    pub line: usize,
}

/// Field names whose declared type is hash-ordered, workspace-wide.
pub fn hash_fields(crates: &[CrateAst]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for krate in crates {
        for file in &krate.files {
            for field in &file.fields {
                if field.ty.contains("HashMap") || field.ty.contains("HashSet") {
                    out.insert(field.field.clone());
                }
            }
        }
    }
    out
}

/// Functions that construct sink values (see module docs).
pub fn sink_fns(g: &CallGraph) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, f) in g.fns.iter().enumerate() {
        let is_measure_impl =
            f.name == "measure_batch" && f.trait_name.as_deref() == Some("Measure");
        if is_measure_impl || body_constructs_sink(&f.body) {
            out.push(id);
        }
    }
    out
}

fn body_constructs_sink(trees: &[Tree]) -> bool {
    trees.iter().enumerate().any(|(i, tree)| match tree {
        Tree::Group(g) => body_constructs_sink(&g.trees),
        Tree::Tok(tok) => {
            // `SinkType { .. }` struct literal.
            let literal = tok.kind == TokKind::Ident
                && SINK_TYPES.contains(&tok.text.as_str())
                && matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == Delim::Brace);
            // `SinkEnum::Variant( .. )` construction.
            let variant = call_at(trees, i).is_some_and(|c| {
                c.kind == CallKind::Path
                    && c.qual
                        .is_some_and(|q| SINK_ENUMS.contains(&q.text.as_str()))
            });
            literal || variant
        }
    })
}

/// Locals bound to hash-ordered collections within a body: `let name` …
/// mentioning `HashMap`/`HashSet` before the statement ends.
fn hash_locals(trees: &[Tree], out: &mut BTreeSet<String>) {
    ast::visit_lets(trees, &mut |stmt| {
        let is_hash = stmt.rest.iter().any(|t| {
            t.tok()
                .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        });
        if let (true, Some(name)) = (is_hash, stmt.name) {
            out.insert(name.to_string());
        }
    });
}

/// Scan one function body for nondeterminism sources.
pub fn find_sources(body: &[Tree], hash_fields: &BTreeSet<String>) -> Vec<Source> {
    let mut locals = BTreeSet::new();
    hash_locals(body, &mut locals);
    let hashed = |name: &str| hash_fields.contains(name) || locals.contains(name);
    let mut out = Vec::new();
    scan_sources(body, &hashed, &mut out);
    out
}

/// `hashed` says whether a field or local name is hash-ordered.
fn scan_sources(trees: &[Tree], hashed: &dyn Fn(&str) -> bool, out: &mut Vec<Source>) {
    let tok_at = |i: usize| trees.get(i).and_then(Tree::tok);
    // `trees[i]` opens the path `<seg> :: <name>`.
    let path_to = |i: usize, name: &str| {
        tok_at(i + 1).is_some_and(|t| t.is_punct("::"))
            && tok_at(i + 2).is_some_and(|t| t.is_ident(name))
    };
    for (i, tree) in trees.iter().enumerate() {
        let tok = match tree {
            Tree::Group(g) => {
                scan_sources(&g.trees, hashed, out);
                continue;
            }
            Tree::Tok(tok) => tok,
        };
        let call = call_at(trees, i).filter(|c| c.kind == CallKind::Method);
        let (key, what, line): (&'static str, String, usize) = match tok.text.as_str() {
            // -- wall-clock ------------------------------------------
            "Instant" | "SystemTime" if path_to(i, "now") => {
                ("wall-clock", format!("{}::now", tok.text), tok.line)
            }
            "elapsed" if call.is_some() => ("wall-clock", ".elapsed()".into(), tok.line),
            // -- rng -------------------------------------------------
            "thread_rng" | "from_entropy" | "OsRng" => ("rng", tok.text.clone(), tok.line),
            "random"
                if i >= 2
                    && path_to(i - 2, "random")
                    && tok_at(i - 2).is_some_and(|t| t.is_ident("rand")) =>
            {
                ("rng", "rand::random".into(), tok.line)
            }
            // -- thread-id -------------------------------------------
            "thread" if path_to(i, "current") => {
                ("thread-id", "thread::current()".into(), tok.line)
            }
            "ThreadId" => ("thread-id", "ThreadId".into(), tok.line),
            // -- addr ------------------------------------------------
            "addr_of" | "addr_of_mut" => ("addr", tok.text.clone(), tok.line),
            "as" if tok_at(i + 1).is_some_and(|t| t.is_punct("*"))
                && tok_at(i + 2).is_some_and(|t| t.is_ident("const") || t.is_ident("mut")) =>
            {
                ("addr", "as-pointer cast".into(), tok.line)
            }
            // -- hash-iter: explicit iteration methods ---------------
            m if ITER_METHODS.contains(&m) => {
                let Some(recv) = call.and_then(|c| c.qual).filter(|r| hashed(&r.text)) else {
                    continue;
                };
                ("hash-iter", format!("{}.{m}()", recv.text), tok.line)
            }
            // -- hash-iter: `for pat in <expr> { .. }` ----------------
            "for" => {
                let Some(t) = for_loop_hash_iter(trees, i, hashed) else {
                    continue;
                };
                ("hash-iter", format!("for … in {}", t.text), t.line)
            }
            // `{:p}` pointer formatting inside string literals.
            _ if tok.kind == TokKind::Str && tok.text.contains("{:p}") => {
                ("addr", "{:p} formatting".into(), tok.line)
            }
            _ => continue,
        };
        out.push(Source { key, what, line });
    }
}

/// For a `for` keyword at `trees[i]`, detect iteration over a
/// hash-ordered field/local: the last identifier of the iterated
/// expression (before the loop body brace) names one.
fn for_loop_hash_iter<'a>(
    trees: &'a [Tree],
    i: usize,
    hashed: &dyn Fn(&str) -> bool,
) -> Option<&'a Tok> {
    // Find `in` after the pattern, then the body brace.
    let mut j = i + 1;
    while j < trees.len() {
        if trees[j].tok().is_some_and(|t| t.is_ident("in")) {
            break;
        }
        if matches!(&trees[j], Tree::Group(g) if g.delim == Delim::Brace) {
            return None; // no `in` before a brace: not a for loop we parse
        }
        j += 1;
    }
    let in_at = j;
    if in_at >= trees.len() {
        return None;
    }
    let mut last_ident: Option<&Tok> = None;
    j = in_at + 1;
    while j < trees.len() {
        match &trees[j] {
            Tree::Group(g) if g.delim == Delim::Brace => break,
            Tree::Group(_) => {}
            Tree::Tok(t) if t.kind == TokKind::Ident => last_ident = Some(t),
            Tree::Tok(_) => {}
        }
        j += 1;
    }
    last_ident.filter(|t| hashed(&t.text))
}

/// Run the taint pass.
///
/// `allows` carry their `used` flags across passes; the caller emits
/// `annotation/stale` afterwards.
pub fn run_taint(g: &CallGraph, crates: &[CrateAst], allows: &mut [Allow], report: &mut Report) {
    let fields = hash_fields(crates);
    // Walk callees from every sink, remembering which sink first reached
    // each function (for the diagnostic message).
    let mut via: BTreeMap<FnId, FnId> = BTreeMap::new();
    g.walk(sink_fns(g), &BTreeSet::new(), &mut via);
    for (&fn_id, &sink) in &via {
        let (Some(f), Some(sink)) = (g.fns.get(fn_id), g.fns.get(sink)) else {
            continue;
        };
        for src in find_sources(&f.body, &fields) {
            if annotations::covers(allows, src.key, &[At::in_fn(f, src.line)]) {
                continue;
            }
            report.push(Diag::new(
                &format!("taint/{}", src.key),
                &f.file,
                src.line,
                format!(
                    "nondeterminism source `{}` in `{}` can reach journaled output \
                     (sink `{}`); fix it or annotate `// mtm-allow: {} -- <why>`",
                    src.what, f.qual, sink.qual, src.key
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Annotations;
    use crate::ast::parse_file;

    fn crate_of(src: &str) -> CrateAst {
        CrateAst {
            unit: "crates/x".into(),
            files: vec![parse_file("x.rs", src)],
            orphans: vec![],
        }
    }

    fn taint(src: &str) -> (Report, Vec<Allow>) {
        let krate = crate_of(src);
        let g = CallGraph::build(std::slice::from_ref(&krate));
        let mut report = Report::default();
        let mut allows = Annotations::resolve(std::slice::from_ref(&krate), &g, &mut report).allows;
        run_taint(&g, std::slice::from_ref(&krate), &mut allows, &mut report);
        (report, allows)
    }

    const SINK_PREAMBLE: &str = "
pub struct StepRecord { pub v: f64 }
";

    #[test]
    fn source_in_sink_fn_is_flagged() {
        let src = format!(
            "{SINK_PREAMBLE}
fn build() -> StepRecord {{
    let t = Instant::now();
    StepRecord {{ v: t.elapsed().as_secs_f64() }}
}}
"
        );
        let (report, _) = taint(&src);
        assert!(
            report.render().contains("taint/wall-clock"),
            "{}",
            report.render()
        );
        assert!(report.render().contains("Instant::now"));
    }

    #[test]
    fn source_in_callee_of_sink_is_flagged() {
        let src = format!(
            "{SINK_PREAMBLE}
fn helper() -> f64 {{ thread_rng() }}
fn build() -> StepRecord {{
    StepRecord {{ v: helper() }}
}}
"
        );
        let (report, _) = taint(&src);
        assert!(report.render().contains("taint/rng"), "{}", report.render());
        assert!(report.render().contains("helper"));
    }

    #[test]
    fn source_outside_sink_closure_is_not_flagged() {
        let src = format!(
            "{SINK_PREAMBLE}
fn unrelated_timer() {{ let _ = Instant::now(); }}
fn build() -> StepRecord {{ StepRecord {{ v: 0.0 }} }}
"
        );
        let (report, _) = taint(&src);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn fn_level_allow_suppresses_and_is_used() {
        let src = format!(
            "{SINK_PREAMBLE}
// mtm-allow: wall-clock -- timing is display-only
fn build() -> StepRecord {{
    let _ = Instant::now();
    StepRecord {{ v: 0.0 }}
}}
"
        );
        let (report, allows) = taint(&src);
        assert!(report.is_empty(), "{}", report.render());
        assert!(allows[0].used);
    }

    #[test]
    fn line_level_allow_covers_next_line_only() {
        let src = format!(
            "{SINK_PREAMBLE}
fn build() -> StepRecord {{
    // mtm-allow: wall-clock -- first site sanctioned
    let _ = Instant::now();
    let _ = SystemTime::now();
    StepRecord {{ v: 0.0 }}
}}
"
        );
        let (report, _) = taint(&src);
        let rendered = report.render();
        assert!(!rendered.contains("Instant::now"), "{rendered}");
        assert!(rendered.contains("SystemTime::now"), "{rendered}");
    }

    #[test]
    fn missing_reason_and_unknown_key_are_reported() {
        let src = "
// mtm-allow: wall-clock
fn a() {}
// mtm-allow: warp-drive -- because
fn b() {}
";
        let file = parse_file("x.rs", src);
        let mut report = Report::default();
        let allows = annotations::read(&file, &mut report);
        let rendered = report.render();
        assert!(rendered.contains("annotation/missing-reason"), "{rendered}");
        assert!(rendered.contains("annotation/unknown-key"), "{rendered}");
        // The unknown-key annotation still parses (reason present).
        assert_eq!(allows.len(), 1);
    }

    #[test]
    fn hash_field_iteration_is_flagged() {
        let src = format!(
            "{SINK_PREAMBLE}
pub struct State {{ pub trials: HashMap<u64, f64> }}
fn build(s: &State) -> StepRecord {{
    let mut v = 0.0;
    for (_, t) in &s.trials {{ v += t; }}
    StepRecord {{ v }}
}}
"
        );
        let (report, _) = taint(&src);
        assert!(
            report.render().contains("taint/hash-iter"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn hash_local_method_iteration_is_flagged() {
        let src = format!(
            "{SINK_PREAMBLE}
fn build() -> StepRecord {{
    let memo: HashMap<u64, f64> = HashMap::new();
    let v = memo.values().sum();
    StepRecord {{ v }}
}}
"
        );
        let (report, _) = taint(&src);
        assert!(
            report.render().contains("taint/hash-iter"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn btree_iteration_is_clean() {
        let src = format!(
            "{SINK_PREAMBLE}
pub struct State {{ pub trials: BTreeMap<u64, f64> }}
fn build(s: &State) -> StepRecord {{
    let mut v = 0.0;
    for (_, t) in &s.trials {{ v += t; }}
    let w: Vec<f64> = s.trials.values().cloned().collect();
    StepRecord {{ v: v + w.len() as f64 }}
}}
"
        );
        let (report, _) = taint(&src);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn measure_impl_is_a_sink() {
        let src = "
pub trait Measure { fn measure_batch(&mut self) -> f64; }
pub struct M;
impl Measure for M {
    fn measure_batch(&mut self) -> f64 { noisy() }
}
fn noisy() -> f64 { thread_rng() }
";
        let (report, _) = taint(src);
        assert!(report.render().contains("taint/rng"), "{}", report.render());
    }

    #[test]
    fn record_enum_construction_is_a_sink() {
        let src = "
pub enum Record { Trial(u32) }
fn journal() -> Record {
    let _ = Instant::now();
    Record::Trial(1)
}
";
        let (report, _) = taint(src);
        assert!(
            report.render().contains("taint/wall-clock"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn cell_new_is_not_a_sink() {
        // `Cell::new` is std; only `Cell { .. }` literals count.
        let src = "
fn f() {
    let _ = Instant::now();
    let _c = Cell::new(1);
}
";
        let (report, _) = taint(src);
        assert!(report.is_empty(), "{}", report.render());
    }
}
