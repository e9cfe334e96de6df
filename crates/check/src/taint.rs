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
//! inside a body covers its own line and the next. Every annotation must
//! carry a `-- reason` and must suppress at least one reportable source
//! (otherwise it is reported as `annotation/stale` — dead allows rot the
//! audit trail).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{CrateAst, FileAst, Tok, TokKind, Tree};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diag, Report};

/// Allow keys adjudicated by the taint pass.
pub const TAINT_KEYS: &[&str] = &["wall-clock", "rng", "hash-iter", "thread-id", "addr"];

/// Allow keys adjudicated by the float-sanity pass (see
/// [`crate::analyze`]).
pub const FLOAT_KEYS: &[&str] = &["float-eq", "float-ord"];

/// Allow keys adjudicated by the hot-path allocation pass (see
/// [`crate::hotpath`]).
pub const ALLOC_KEYS: &[&str] = &["alloc"];

/// Allow keys adjudicated by the lock-region pass (see
/// [`crate::lockregion`]).
pub const LOCK_KEYS: &[&str] = &["lock"];

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

/// One parsed `mtm-allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// File the annotation lives in.
    pub file: String,
    /// Line of the comment.
    pub line: usize,
    /// The allow keys it grants.
    pub keys: Vec<String>,
    /// Set when the annotation suppressed at least one finding.
    pub used: bool,
}

/// Parse every `mtm-allow` annotation in a file, reporting grammar
/// violations (missing reason, unknown key) as diagnostics. Malformed
/// annotations are still returned so they don't double-report as stale.
pub fn collect_allows(file: &FileAst, report: &mut Report) -> Vec<Allow> {
    let mut out = Vec::new();
    let valid: Vec<&str> = TAINT_KEYS
        .iter()
        .chain(FLOAT_KEYS)
        .chain(ALLOC_KEYS)
        .chain(LOCK_KEYS)
        .copied()
        .collect();
    for c in &file.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("mtm-allow:") else {
            continue;
        };
        let (keys_part, reason) = match rest.split_once("--") {
            Some((k, r)) => (k, r.trim()),
            None => (rest, ""),
        };
        let keys: Vec<String> = keys_part
            .split(',')
            .map(|k| k.trim().to_string())
            .filter(|k| !k.is_empty())
            .collect();
        if keys.is_empty() {
            report.push(Diag::new(
                "annotation/malformed",
                &file.rel,
                c.line,
                "mtm-allow annotation lists no keys",
            ));
            continue;
        }
        for key in &keys {
            if !valid.contains(&key.as_str()) {
                report.push(Diag::new(
                    "annotation/unknown-key",
                    &file.rel,
                    c.line,
                    format!(
                        "unknown mtm-allow key `{key}` (valid: {})",
                        valid.join(", ")
                    ),
                ));
            }
        }
        if reason.is_empty() {
            report.push(Diag::new(
                "annotation/missing-reason",
                &file.rel,
                c.line,
                "mtm-allow annotation needs `-- <reason>`",
            ));
            continue;
        }
        out.push(Allow {
            file: file.rel.clone(),
            line: c.line,
            keys,
            used: false,
        });
    }
    out
}

/// Does `allow` cover a finding with `key` at `file:line` inside a fn
/// spanning `fn_line..=fn_end`? Fn-level annotations sit within three
/// lines above the signature (attributes/doc lines in between are fine);
/// line-level annotations cover their own line and the next.
pub fn allow_covers(
    allow: &Allow,
    key: &str,
    file: &str,
    line: usize,
    fn_line: usize,
    fn_end: usize,
) -> bool {
    if allow.file != file || !allow.keys.iter().any(|k| k == key) {
        return false;
    }
    let fn_level = allow.line < fn_line && fn_line.saturating_sub(allow.line) <= 3;
    let line_level = allow.line >= fn_line
        && allow.line <= fn_end
        && (line == allow.line || line == allow.line + 1);
    fn_level || line_level
}

/// One nondeterminism-source occurrence.
#[derive(Debug, Clone)]
pub struct SourceInst {
    /// Allow key classifying the source.
    pub key: &'static str,
    /// What was seen, for the message (e.g. `Instant::now`).
    pub what: String,
    /// File of the occurrence.
    pub file: String,
    /// Line of the occurrence.
    pub line: usize,
    /// Function containing it.
    pub fn_id: FnId,
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
    let mut found = false;
    scan_sinks(trees, &mut found);
    found
}

fn scan_sinks(trees: &[Tree], found: &mut bool) {
    for (i, tree) in trees.iter().enumerate() {
        if *found {
            return;
        }
        match tree {
            Tree::Group(g) => scan_sinks(&g.trees, found),
            Tree::Tok(tok) if tok.kind == TokKind::Ident => {
                // `SinkType { .. }` struct literal.
                if SINK_TYPES.contains(&tok.text.as_str()) {
                    if let Some(Tree::Group(g)) = trees.get(i + 1) {
                        if g.delim == crate::ast::Delim::Brace {
                            *found = true;
                            return;
                        }
                    }
                }
                // `SinkEnum::Variant( .. )` construction.
                if SINK_ENUMS.contains(&tok.text.as_str())
                    && trees
                        .get(i + 1)
                        .and_then(Tree::tok)
                        .is_some_and(|t| t.is_punct("::"))
                    && trees
                        .get(i + 2)
                        .and_then(Tree::tok)
                        .is_some_and(|t| t.kind == TokKind::Ident)
                    && matches!(trees.get(i + 3), Some(Tree::Group(g)) if g.delim == crate::ast::Delim::Paren)
                {
                    *found = true;
                    return;
                }
            }
            Tree::Tok(_) => {}
        }
    }
}

/// Locals bound to hash-ordered collections within a body: `let name` …
/// mentioning `HashMap`/`HashSet` before the statement ends.
fn hash_locals(trees: &[Tree], out: &mut BTreeSet<String>) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Group(g) => hash_locals(&g.trees, out),
            Tree::Tok(tok) if tok.is_ident("let") => {
                // Name: the next plain ident (skip `mut`).
                let mut j = i + 1;
                let mut name: Option<String> = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Tok(t) if t.is_ident("mut") => {}
                        Tree::Tok(t) if t.kind == TokKind::Ident => {
                            name = Some(t.text.clone());
                            break;
                        }
                        _ => break,
                    }
                    j += 1;
                }
                // Scan to the end of the statement for hash types.
                let mut is_hash = false;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Tok(t) if t.is_punct(";") => break,
                        Tree::Tok(t) if t.is_ident("HashMap") || t.is_ident("HashSet") => {
                            is_hash = true;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if is_hash {
                    if let Some(name) = name {
                        out.insert(name);
                    }
                }
                i = j;
            }
            Tree::Tok(_) => {}
        }
        i += 1;
    }
}

/// Scan one function body for nondeterminism sources.
pub fn find_sources(
    body: &[Tree],
    file: &str,
    fn_id: FnId,
    hash_fields: &BTreeSet<String>,
    out: &mut Vec<SourceInst>,
) {
    let mut locals = BTreeSet::new();
    hash_locals(body, &mut locals);
    scan_sources(body, file, fn_id, hash_fields, &locals, out);
}

fn push(
    out: &mut Vec<SourceInst>,
    key: &'static str,
    what: &str,
    file: &str,
    line: usize,
    fn_id: FnId,
) {
    out.push(SourceInst {
        key,
        what: what.to_string(),
        file: file.to_string(),
        line,
        fn_id,
    });
}

fn scan_sources(
    trees: &[Tree],
    file: &str,
    fn_id: FnId,
    hash_fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
    out: &mut Vec<SourceInst>,
) {
    let tok_at = |i: usize| trees.get(i).and_then(Tree::tok);
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            Tree::Group(g) => scan_sources(&g.trees, file, fn_id, hash_fields, locals, out),
            Tree::Tok(tok) => {
                let line = tok.line;
                match tok.text.as_str() {
                    // -- wall-clock --------------------------------------
                    "Instant" | "SystemTime" => {
                        if tok_at(i + 1).is_some_and(|t| t.is_punct("::"))
                            && tok_at(i + 2).is_some_and(|t| t.is_ident("now"))
                        {
                            push(
                                out,
                                "wall-clock",
                                &format!("{}::now", tok.text),
                                file,
                                line,
                                fn_id,
                            );
                        }
                    }
                    "elapsed" => {
                        if i > 0
                            && tok_at(i - 1).is_some_and(|t| t.is_punct("."))
                            && matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == crate::ast::Delim::Paren)
                        {
                            push(out, "wall-clock", ".elapsed()", file, line, fn_id);
                        }
                    }
                    // -- rng ---------------------------------------------
                    "thread_rng" | "from_entropy" | "OsRng" => {
                        push(out, "rng", &tok.text, file, line, fn_id);
                    }
                    "random" => {
                        if i > 0
                            && tok_at(i - 1).is_some_and(|t| t.is_punct("::"))
                            && i > 1
                            && tok_at(i - 2).is_some_and(|t| t.is_ident("rand"))
                        {
                            push(out, "rng", "rand::random", file, line, fn_id);
                        }
                    }
                    // -- thread-id ---------------------------------------
                    "thread" => {
                        if tok_at(i + 1).is_some_and(|t| t.is_punct("::"))
                            && tok_at(i + 2).is_some_and(|t| t.is_ident("current"))
                        {
                            push(out, "thread-id", "thread::current()", file, line, fn_id);
                        }
                    }
                    "ThreadId" => {
                        push(out, "thread-id", "ThreadId", file, line, fn_id);
                    }
                    // -- addr --------------------------------------------
                    "addr_of" | "addr_of_mut" => {
                        push(out, "addr", &tok.text, file, line, fn_id);
                    }
                    "as" => {
                        if tok_at(i + 1).is_some_and(|t| t.is_punct("*"))
                            && tok_at(i + 2)
                                .is_some_and(|t| t.is_ident("const") || t.is_ident("mut"))
                        {
                            push(out, "addr", "as-pointer cast", file, line, fn_id);
                        }
                    }
                    // -- hash-iter: explicit iteration methods -----------
                    m if ITER_METHODS.contains(&m) => {
                        let is_method_call = i > 0
                            && tok_at(i - 1).is_some_and(|t| t.is_punct("."))
                            && matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == crate::ast::Delim::Paren);
                        if is_method_call {
                            let recv = i.checked_sub(2).and_then(tok_at);
                            if recv.is_some_and(|r| {
                                r.kind == TokKind::Ident
                                    && (hash_fields.contains(&r.text) || locals.contains(&r.text))
                            }) {
                                let recv = recv.map(|r| r.text.clone()).unwrap_or_default();
                                push(
                                    out,
                                    "hash-iter",
                                    &format!("{recv}.{m}()"),
                                    file,
                                    line,
                                    fn_id,
                                );
                            }
                        }
                    }
                    // -- hash-iter: `for pat in <expr> { .. }` ------------
                    "for" => {
                        if let Some(inst) = for_loop_hash_iter(trees, i, hash_fields, locals) {
                            push(out, "hash-iter", &inst.0, file, inst.1, fn_id);
                        }
                    }
                    _ => {
                        // `{:p}` pointer formatting inside string literals.
                        if tok.kind == TokKind::Str && tok.text.contains("{:p}") {
                            push(out, "addr", "{:p} formatting", file, line, fn_id);
                        }
                    }
                }
            }
        }
    }
}

/// For a `for` keyword at `trees[i]`, detect iteration over a
/// hash-ordered field/local: the last identifier of the iterated
/// expression (before the loop body brace) names one.
fn for_loop_hash_iter(
    trees: &[Tree],
    i: usize,
    hash_fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
) -> Option<(String, usize)> {
    // Find `in` after the pattern, then the body brace.
    let mut j = i + 1;
    while j < trees.len() {
        if trees[j].tok().is_some_and(|t| t.is_ident("in")) {
            break;
        }
        if matches!(&trees[j], Tree::Group(g) if g.delim == crate::ast::Delim::Brace) {
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
            Tree::Group(g) if g.delim == crate::ast::Delim::Brace => break,
            Tree::Group(_) => {}
            Tree::Tok(t) if t.kind == TokKind::Ident => last_ident = Some(t),
            Tree::Tok(_) => {}
        }
        j += 1;
    }
    let t = last_ident?;
    (hash_fields.contains(&t.text) || locals.contains(&t.text))
        .then(|| (format!("for … in {}", t.text), t.line))
}

/// Run the taint pass.
///
/// `allows` carry their `used` flags across passes; the caller emits
/// `annotation/stale` afterwards.
pub fn run_taint(g: &CallGraph, crates: &[CrateAst], allows: &mut [Allow], report: &mut Report) {
    let fields = hash_fields(crates);
    let sinks = sink_fns(g);
    // BFS over callees from every sink, remembering which sink first
    // reached each function (for the diagnostic message).
    let mut via: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for &s in &sinks {
        via.entry(s).or_insert(s);
        queue.push(s);
    }
    while let Some(f) = queue.pop() {
        let origin = via[&f];
        for &callee in &g.callees[f] {
            if let std::collections::btree_map::Entry::Vacant(e) = via.entry(callee) {
                e.insert(origin);
                queue.push(callee);
            }
        }
    }

    let mut instances: Vec<SourceInst> = Vec::new();
    for &fn_id in via.keys() {
        let f = &g.fns[fn_id];
        find_sources(&f.body, &f.file, fn_id, &fields, &mut instances);
    }

    for inst in &instances {
        let f = &g.fns[inst.fn_id];
        let covered = allows
            .iter_mut()
            .find(|a| allow_covers(a, inst.key, &inst.file, inst.line, f.line, f.end_line));
        if let Some(a) = covered {
            a.used = true;
            continue;
        }
        let sink = &g.fns[via[&inst.fn_id]];
        report.push(Diag::new(
            &format!("taint/{}", inst.key),
            &inst.file,
            inst.line,
            format!(
                "nondeterminism source `{}` in `{}` can reach journaled output \
                 (sink `{}`); fix it or annotate `// mtm-allow: {} -- <why>`",
                inst.what, f.qual, sink.qual, inst.key
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut allows = collect_allows(&krate.files[0], &mut report);
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
        let allows = collect_allows(&file, &mut report);
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
