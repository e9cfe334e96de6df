//! The `mtm-check analyze` pass: AST-backed workspace analysis.
//!
//! Orchestrates one front end that every pass shares — the parser and
//! its call-site classifier ([`crate::ast`]), the call graph and its one
//! walk ([`crate::callgraph`]), and the annotation table with its one
//! allow adjudicator ([`crate::annotations`]) — and these analyses:
//!
//! 1. **Determinism taint** ([`crate::taint`]) — nondeterminism sources
//!    reaching journaled/measured values; hard errors unless annotated
//!    with `// mtm-allow: <key> -- <reason>`.
//! 2. **Panic-path counting** — `.unwrap()` / `.expect(` / `panic!`,
//!    postfix indexing (`xs[i]`), and unguarded integer `/`/`%`, counted
//!    per ratchet unit against the budgets in `check/ratchet.toml`
//!    (tables `[panic_sites]`, `[index_sites]`, `[div_sites]`; counts can
//!    only go down).
//! 3. **Float sanity** — `f64`/`f32` `==`/`!=` (allow key `float-eq`),
//!    `partial_cmp().unwrap()`
//!    on possibly-NaN keys, and order-sensitive reductions after a
//!    `par_iter` (`float-ord`).
//! 4. **Hot-path allocations** ([`crate::hotpath`]) — allocation, lock
//!    and IO sites reachable from `// mtm-hot: <key>` roots (cut at
//!    `// mtm-cold: <reason>` seams, `mtm-allow: alloc` adjudicated),
//!    ratcheted in the `[alloc_hot]` table.
//! 5. **Lock regions** ([`crate::lockregion`]) — blocking work, lock-order
//!    cycles and guard-across-wait while a guard is held.
//!
//! Statements gated on `#[cfg(feature = "strict-invariants")]` are the
//! assertion layer: the panic-path, float, hot-path and lock scans skip
//! them ([`crate::ast::skip_strict_gate`]), exactly like `#[cfg(test)]`
//! items. Taint and the call graph do not.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::annotations::{self, Annotations, At};
use crate::ast::{self, call_at, CallKind, CrateAst, Delim, TokKind, Tree};
use crate::callgraph::CallGraph;
use crate::diag::{Diag, Report};
use crate::ratchet::SiteCounts;

/// Result of analyzing a workspace (or a fixture crate set).
#[derive(Debug, Default)]
pub struct Analysis {
    /// Hard findings: taint, float, annotation and module diagnostics.
    pub report: Report,
    /// Per-unit panic/index/div/alloc-hot counts (the ratchet input).
    /// Units with all-zero counts are omitted, matching the ratchet file.
    pub counts: std::collections::BTreeMap<String, SiteCounts>,
    /// Hot-path pass output: roots, reach, unsuppressed sites (drives
    /// `mtm-check analyze --hot`).
    pub hot: crate::hotpath::HotSummary,
    /// Lock-region pass output: named locks, regions, blocking sites and
    /// the acquired-while-holding graph (drives `analyze --locks`).
    pub lock: crate::lockregion::LockSummary,
}

/// Parse every workspace crate: `crates/*/src` plus the root `src/`.
/// Vendored `third_party/` stand-ins and the `tests/` member are out of
/// scope.
pub fn parse_workspace(root: &Path) -> Result<Vec<CrateAst>, String> {
    let mut crates = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            crates.push(ast::parse_crate(root, &src, &format!("crates/{name}"))?);
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        crates.push(ast::parse_crate(root, &root_src, "src")?);
    }
    Ok(crates)
}

/// Analyze a parsed crate set: build the call graph, read the
/// annotation table, run every pass, report stale allows.
pub fn analyze_crates(crates: &[CrateAst]) -> Analysis {
    let mut analysis = Analysis::default();
    let graph = CallGraph::build(crates);
    let mut annots = Annotations::resolve(crates, &graph, &mut analysis.report);
    for krate in crates {
        for orphan in &krate.orphans {
            analysis.report.push(Diag::new(
                "module/orphan",
                orphan,
                1,
                format!(
                    "file is not reachable from any `mod` declaration in {} — \
                     wire it into the module tree or remove it",
                    krate.unit
                ),
            ));
        }
    }

    crate::taint::run_taint(&graph, crates, &mut annots.allows, &mut analysis.report);

    let float_fields = float_fields(crates);
    let float_consts = float_consts(crates);
    for (f, unit) in graph.fns.iter().zip(&graph.units) {
        let mut scan = BodyScan {
            float_fields: &float_fields,
            float_names: float_consts.get(unit).cloned().unwrap_or_default(),
            counts: SiteCounts::default(),
            floats: Vec::new(),
        };
        collect_float_params(&f.params, &mut scan.float_names);
        collect_float_locals(&f.body, &mut scan.float_names);
        walk_body(&f.body, &mut scan);
        let entry = analysis.counts.entry(unit.clone()).or_default();
        entry.panic_sites += scan.counts.panic_sites;
        entry.index_sites += scan.counts.index_sites;
        entry.div_sites += scan.counts.div_sites;
        for (code, line, what) in scan.floats {
            let key = if code == "float/eq" {
                "float-eq"
            } else {
                "float-ord"
            };
            if annotations::covers(&mut annots.allows, key, &[At::in_fn(f, line)]) {
                continue;
            }
            analysis.report.push(Diag::new(
                &code,
                &f.file,
                line,
                format!(
                    "{what} in `{}`; fix it or annotate `// mtm-allow: {key} -- <why>`",
                    f.qual
                ),
            ));
        }
    }

    analysis.hot = crate::hotpath::run(&graph, &mut annots, &mut analysis.counts);
    analysis.lock = crate::lockregion::run(
        &graph,
        &mut annots,
        &mut analysis.report,
        &mut analysis.counts,
    );

    analysis.counts.retain(|_, c| !c.is_zero());

    for allow in annots.allows.iter().filter(|a| !a.used) {
        analysis.report.push(Diag::new(
            "annotation/stale",
            &allow.file,
            allow.line,
            format!(
                "mtm-allow annotation ({}) no longer suppresses any finding — \
                 the target is gone or unreachable; remove the annotation",
                allow.keys.join(", ")
            ),
        ));
    }
    analysis
}

/// Analyze a workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    Ok(analyze_crates(&parse_workspace(root)?))
}

/// Analyze a single in-memory source file (fixture/test entry point).
/// The file is treated as a one-file crate with unit `crates/fixture`.
pub fn analyze_source(rel: &str, src: &str) -> Analysis {
    let krate = CrateAst {
        unit: "crates/fixture".to_string(),
        files: vec![ast::parse_file(rel, src)],
        orphans: Vec::new(),
    };
    analyze_crates(std::slice::from_ref(&krate))
}

/// How a declared type relates to floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloatTy {
    /// `f64`/`f32` itself (through `&`/`mut`): the bare identifier is
    /// float evidence.
    Scalar,
    /// A float-bearing container (`Vec<f64>`, `&[f64]`, `[f32; 3]`, …):
    /// evidence only when indexed, so `xs.len()` stays integer-clean.
    Container,
}

/// Classify a flattened type string (space-separated tokens).
fn classify_float_ty(ty: &str) -> Option<FloatTy> {
    if !ty.contains("f64") && !ty.contains("f32") {
        return None;
    }
    let core: String = ty
        .replace('&', " ")
        .split_whitespace()
        .filter(|w| *w != "mut" && !w.starts_with('\''))
        .collect::<Vec<_>>()
        .join(" ");
    if core == "f64" || core == "f32" {
        Some(FloatTy::Scalar)
    } else {
        Some(FloatTy::Container)
    }
}

/// Per-tier sets of names that carry float evidence.
#[derive(Debug, Default, Clone)]
struct FloatNames {
    scalars: BTreeSet<String>,
    containers: BTreeSet<String>,
}

impl FloatNames {
    fn insert(&mut self, name: String, tier: FloatTy) {
        match tier {
            FloatTy::Scalar => self.scalars.insert(name),
            FloatTy::Container => self.containers.insert(name),
        };
    }
}

/// Field names with a float-typed declaration anywhere in the workspace.
fn float_fields(crates: &[CrateAst]) -> FloatNames {
    let mut out = FloatNames::default();
    for krate in crates {
        for file in &krate.files {
            for field in &file.fields {
                if let Some(tier) = classify_float_ty(&field.ty) {
                    out.insert(field.field.clone(), tier);
                }
            }
        }
    }
    out
}

/// Float-typed `const`/`static` items per ratchet unit: evidence in
/// every function body of the crate that declares them, as a parameter
/// or local of that type would be (`LEARNING_RATE * m / (…)` is a
/// float division).
fn float_consts(crates: &[CrateAst]) -> BTreeMap<String, FloatNames> {
    let mut out = BTreeMap::new();
    for krate in crates {
        let names: &mut FloatNames = out.entry(krate.unit.clone()).or_default();
        for item in krate.files.iter().flat_map(|file| &file.consts) {
            if let Some(tier) = classify_float_ty(&item.ty) {
                names.insert(item.name.clone(), tier);
            }
        }
    }
    out
}

/// Parameters with float-typed declarations: split the argument list on
/// top-level commas, take `name : Type` chunks (tuple patterns are
/// skipped), classify the type span.
fn collect_float_params(params: &[Tree], out: &mut FloatNames) {
    for chunk in params.split(|t| matches!(t, Tree::Tok(tok) if tok.is_punct(","))) {
        let Some(colon) = chunk
            .iter()
            .position(|t| matches!(t, Tree::Tok(tok) if tok.is_punct(":")))
        else {
            continue;
        };
        let name = chunk[..colon].iter().rev().find_map(|t| match t {
            Tree::Tok(tok) if tok.kind == TokKind::Ident && !tok.is_ident("mut") => {
                Some(tok.text.clone())
            }
            _ => None,
        });
        let (Some(name), Some(tier)) =
            (name, classify_float_ty(&ast::flatten(&chunk[colon + 1..])))
        else {
            continue;
        };
        out.insert(name, tier);
    }
}

/// Locals bound with float evidence. An explicit `let name: Type`
/// annotation is classified like a parameter type; without one, a
/// top-level float literal or `f64`/`f32` token in the initializer makes
/// the binding a scalar (`let y = x * 2.0;`).
fn collect_float_locals(trees: &[Tree], out: &mut FloatNames) {
    ast::visit_lets(trees, &mut |stmt| {
        let rest = stmt.rest;
        let punct = |p: &'static str| move |t: &Tree| t.tok().is_some_and(|t| t.is_punct(p));
        // Optional `: Type` annotation up to `=`.
        let eq = rest.iter().position(punct("=")).unwrap_or(rest.len());
        let tier = match rest[..eq].iter().position(punct(":")) {
            Some(colon) => classify_float_ty(&ast::flatten(&rest[colon + 1..eq])),
            None => {
                let scalar = rest[eq..].iter().any(|t| {
                    matches!(t, Tree::Tok(tok) if tok.kind == TokKind::Float
                        || tok.is_ident("f64")
                        || tok.is_ident("f32"))
                });
                scalar.then_some(FloatTy::Scalar)
            }
        };
        if let (Some(name), Some(tier)) = (stmt.name, tier) {
            out.insert(name.to_string(), tier);
        }
    });
}

struct BodyScan<'a> {
    float_fields: &'a FloatNames,
    float_names: FloatNames,
    counts: SiteCounts,
    /// `(code, line, what)` float findings.
    floats: Vec<(String, usize, String)>,
}

/// Walk a body level, counting panic/index/div sites and collecting
/// float findings. Strict-invariants-gated statements are skipped whole.
fn walk_body(trees: &[Tree], scan: &mut BodyScan<'_>) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Some(next) = ast::skip_strict_gate(trees, i) {
            i = next;
            continue;
        }
        match &trees[i] {
            Tree::Group(g) => {
                // Postfix indexing: `expr[...]` — the bracket group follows
                // an identifier or a paren/bracket group. Array literals,
                // attributes (`#[..]`) and macros (`vec![..]`) follow
                // punctuation instead.
                if g.delim == Delim::Bracket {
                    let is_index = match i.checked_sub(1).map(|j| &trees[j]) {
                        Some(Tree::Tok(t)) => t.kind == TokKind::Ident && !is_expr_keyword(&t.text),
                        Some(Tree::Group(p)) => matches!(p.delim, Delim::Paren | Delim::Bracket),
                        None => false,
                    };
                    if is_index {
                        scan.counts.index_sites += 1;
                    }
                }
                walk_body(&g.trees, scan);
            }
            Tree::Tok(tok) => {
                let line = tok.line;
                let kind = call_at(trees, i).map(|c| c.kind);
                match tok.text.as_str() {
                    "unwrap" | "expect" if kind == Some(CallKind::Method) => {
                        scan.counts.panic_sites += 1;
                        // `partial_cmp(..).unwrap()` — NaN-unsound total
                        // ordering; `total_cmp` is the fix.
                        let on_partial_cmp = i
                            .checked_sub(3)
                            .and_then(|j| call_at(trees, j))
                            .is_some_and(|c| {
                                c.kind != CallKind::Macro && c.name.is_ident("partial_cmp")
                            });
                        if on_partial_cmp {
                            scan.floats.push((
                                "float/partial-cmp".to_string(),
                                line,
                                format!("`partial_cmp().{}()` panics/misorders on NaN — use `total_cmp`", tok.text),
                            ));
                        }
                    }
                    "panic" if kind == Some(CallKind::Macro) => {
                        scan.counts.panic_sites += 1;
                    }
                    // Operator arms must check the token kind: a char
                    // literal `'/'` or string literal `"/"` carries the
                    // same text as the punct and is not an operator.
                    "/" | "%" if tok.kind == TokKind::Punct && !div_is_guarded(trees, i, scan) => {
                        scan.counts.div_sites += 1;
                    }
                    "==" | "!=" if tok.kind == TokKind::Punct && float_operands(trees, i, scan) => {
                        scan.floats.push((
                            "float/eq".to_string(),
                            line,
                            format!("float `{}` comparison", tok.text),
                        ));
                    }
                    "par_iter" | "into_par_iter" | "par_chunks" | "par_bridge" => {
                        if let Some(red_line) = par_reduction_after(trees, i) {
                            scan.floats.push((
                                "float/ord".to_string(),
                                red_line,
                                format!(
                                    "order-sensitive reduction after `{}` — parallel \
                                     float accumulation is schedule-dependent",
                                    tok.text
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
}

/// Keywords after which `[` opens an array literal, not an index.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "in" | "else" | "match" | "if" | "while" | "break" | "mut" | "ref" | "as"
    )
}

/// Span of trees around `center` bounded by statement/operand separators.
/// Brace groups (block bodies) also terminate the span: braces never
/// appear as punctuation at the token-tree level, and scanning through a
/// block would leak evidence from neighbouring statements
/// (`if n == 0 { .. } let mut scale = 0.0;` must not see the `0.0`).
fn operand_span(trees: &[Tree], center: usize) -> (usize, usize) {
    let stop = |tree: &Tree| match tree {
        Tree::Tok(t) => {
            matches!(t.text.as_str(), ";" | "," | "&&" | "||" | "=" | "=>")
                && t.kind == TokKind::Punct
        }
        Tree::Group(g) => g.delim == Delim::Brace,
    };
    let mut lo = center;
    while lo > 0 {
        if stop(&trees[lo - 1]) {
            break;
        }
        lo -= 1;
    }
    let mut hi = center + 1;
    while hi < trees.len() {
        if stop(&trees[hi]) {
            break;
        }
        hi += 1;
    }
    (lo, hi)
}

/// Float evidence within `lo..hi`: a float literal, an `f64`/`f32`
/// token, a float-typed local/parameter, or a `.field` access on a
/// float-typed field. Scalar names count anywhere; container names
/// (`Vec<f64>`, `&[f64]`, …) count only when immediately indexed, so
/// `xs.len() == n` stays clean while `xs[a] == xs[b]` is evidence.
fn span_has_float(trees: &[Tree], lo: usize, hi: usize, scan: &BodyScan<'_>) -> bool {
    for j in lo..hi {
        if let Tree::Tok(t) = &trees[j] {
            if t.kind == TokKind::Float || t.is_ident("f64") || t.is_ident("f32") {
                return true;
            }
            if t.kind == TokKind::Ident {
                let after_dot = j > 0 && trees[j - 1].tok().is_some_and(|p| p.is_punct("."));
                let indexed = trees
                    .get(j + 1)
                    .is_some_and(|n| matches!(n, Tree::Group(g) if g.delim == Delim::Bracket));
                let names = if after_dot {
                    scan.float_fields
                } else {
                    &scan.float_names
                };
                if names.scalars.contains(&t.text)
                    || (indexed && names.containers.contains(&t.text))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// A `/`/`%` at `i` is guarded (not counted) when the operands show
/// float evidence or the right-hand side is a nonzero integer literal.
fn div_is_guarded(trees: &[Tree], i: usize, scan: &BodyScan<'_>) -> bool {
    let (lo, hi) = operand_span(trees, i);
    if span_has_float(trees, lo, hi, scan) {
        return true;
    }
    if let Some(Tree::Tok(rhs)) = trees.get(i + 1) {
        if rhs.kind == TokKind::Int {
            let digits: String = rhs
                .text
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            return digits.parse::<u64>().map(|v| v != 0).unwrap_or(true)
                || rhs.text.starts_with("0x")
                || rhs.text.starts_with("0b")
                || rhs.text.starts_with("0o");
        }
    }
    false
}

/// Do the operands of the `==`/`!=` at `i` carry float evidence?
fn float_operands(trees: &[Tree], i: usize, scan: &BodyScan<'_>) -> bool {
    let (lo, hi) = operand_span(trees, i);
    span_has_float(trees, lo, hi, scan)
}

/// After a `par_iter`-family call at `i`, find an order-sensitive
/// reduction (`sum`/`fold`/`reduce`) in the same statement; returns its
/// line.
fn par_reduction_after(trees: &[Tree], i: usize) -> Option<usize> {
    let mut j = i + 1;
    while j < trees.len() {
        match &trees[j] {
            Tree::Tok(t) if t.is_punct(";") => return None,
            Tree::Tok(t) if t.is_ident("sum") || t.is_ident("fold") || t.is_ident("reduce") => {
                return Some(t.line);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_sites_counted_ast_accurately() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
fn f(x: Option<u32>) -> u32 {
    // .unwrap() in a comment does not count
    let s = ".unwrap() in a string";
    let _ = s;
    x.unwrap()
}
fn g() { panic!("boom"); }
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) -> u32 { x.unwrap() }
}
"#,
        );
        assert_eq!(a.counts["crates/fixture"].panic_sites, 2);
    }

    #[test]
    fn index_sites_exclude_literals_attrs_and_macros() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
fn f(xs: &[f64], i: usize) -> f64 {
    let arr = [1, 2, 3];
    let v = vec![4, 5];
    let _ = v;
    let _ = arr;
    xs[i]
}
"#,
        );
        assert_eq!(a.counts["crates/fixture"].index_sites, 1);
    }

    #[test]
    fn int_div_counted_float_and_const_divisor_skipped() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
fn f(a: usize, b: usize) -> usize {
    let half = a / 2;
    let frac = 1.0 / (a as f64);
    let _ = frac;
    half + a / b
}
"#,
        );
        assert_eq!(a.counts["crates/fixture"].div_sites, 1);
    }

    #[test]
    fn slash_in_char_and_string_literals_is_not_a_division() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
fn f(path: &str, unit: &str) -> String {
    let needle = format!("/{}/", unit.trim_matches('/'));
    let normalized = path.replace('\\', "/");
    let _ = normalized.contains(&needle);
    needle
}
"#,
        );
        assert_eq!(a.counts.get("crates/fixture").map_or(0, |c| c.div_sites), 0);
    }

    #[test]
    fn strict_gated_statements_are_skipped() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(xs: &[f64]) {
    #[cfg(feature = \"strict-invariants\")]
    crate::invariants::assert_finite(\"f\", xs).unwrap();
    let _ = xs;
}
",
        );
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn float_eq_flagged_and_only_mtm_allow_honored() {
        // A leftover clippy-style `lint:allow(float_cmp)` comment
        // suppresses nothing; `mtm-allow: float-eq` is the one syntax.
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(x: f64) -> bool {
    let y = x * 2.0;
    y == 0.5
}
fn g(x: f64) -> bool {
    // lint:allow(float_cmp) exact sentinel
    x == 0.0
}
fn k(x: f64) -> bool {
    // mtm-allow: float-eq -- exact sentinel
    x == 1.0
}
fn h(x: usize) -> bool { x == 5 }
",
        );
        let rendered = a.report.render();
        assert_eq!(rendered.matches("float/eq").count(), 2, "{rendered}");
        assert!(rendered.contains(":4:"), "{rendered}");
        assert!(rendered.contains(":8:"), "{rendered}");
        assert!(!rendered.contains("annotation/stale"), "{rendered}");
    }

    #[test]
    fn integer_eq_before_float_statement_is_clean() {
        // The operand span must stop at the if-body brace group: the
        // float evidence in the *next* statement belongs to it, not to
        // the integer comparison.
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut scale = 0.0f64;
    scale += n as f64;
    scale
}
fn g(x: Vec<f64>, d: usize) -> bool {
    if x.len() != d {
        return false;
    }
    let b: Vec<f64> = x.clone();
    b.is_empty()
}
",
        );
        let rendered = a.report.render();
        assert!(!rendered.contains("float/eq"), "{rendered}");
    }

    #[test]
    fn float_param_and_indexed_slice_are_evidence_len_is_not() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn scalar_param(x: f64) -> bool { x == 0.0 }
fn indexed_slice(xs: &[f64], i: usize, j: usize) -> bool {
    xs[i] == xs[j]
}
fn len_is_integer(xs: &[f64], n: usize) -> bool {
    xs.len() == n
}
",
        );
        let rendered = a.report.render();
        assert_eq!(rendered.matches("float/eq").count(), 2, "{rendered}");
        assert!(rendered.contains(":2:"), "{rendered}");
        assert!(rendered.contains(":4:"), "{rendered}");
    }

    #[test]
    fn classify_float_ty_tiers() {
        assert_eq!(classify_float_ty("f64"), Some(FloatTy::Scalar));
        assert_eq!(classify_float_ty("& mut f32"), Some(FloatTy::Scalar));
        assert_eq!(classify_float_ty("& 'a f64"), Some(FloatTy::Scalar));
        assert_eq!(classify_float_ty("Vec < f64 >"), Some(FloatTy::Container));
        assert_eq!(classify_float_ty("& [ f64 ]"), Some(FloatTy::Container));
        assert_eq!(classify_float_ty("usize"), None);
    }

    #[test]
    fn partial_cmp_unwrap_is_flagged_total_cmp_clean() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
fn g(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| a.total_cmp(b));
}
",
        );
        let rendered = a.report.render();
        assert_eq!(
            rendered.matches("float/partial-cmp").count(),
            1,
            "{rendered}"
        );
    }

    #[test]
    fn par_reduction_is_flagged() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(xs: &Vec<f64>) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum()
}
",
        );
        assert!(
            a.report.render().contains("float/ord"),
            "{}",
            a.report.render()
        );
    }

    #[test]
    fn stale_allow_is_reported() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
// mtm-allow: wall-clock -- nothing here actually taints
fn f() -> u32 { 1 }
",
        );
        assert!(
            a.report.render().contains("annotation/stale"),
            "{}",
            a.report.render()
        );
    }

    /// Analyze `src` and render its report: one line per diagnostic.
    fn rendered(src: &str) -> String {
        analyze_source("crates/fixture/src/lib.rs", src)
            .report
            .render()
    }

    #[test]
    fn allow_without_keys_is_malformed_once() {
        assert_eq!(
            rendered("\n// mtm-allow: -- why\nfn f() {}\n"),
            "crates/fixture/src/lib.rs:2: [annotation/malformed] \
             mtm-allow annotation lists no keys\n"
        );
    }

    #[test]
    fn empty_cold_annotation_is_malformed_once() {
        assert_eq!(
            rendered("\n// mtm-cold:\nfn f() {}\n"),
            "crates/fixture/src/lib.rs:2: [annotation/malformed] \
             mtm-cold annotation needs a `<reason>`\n"
        );
    }

    #[test]
    fn empty_lock_annotation_is_malformed_once() {
        assert_eq!(
            rendered("\n// mtm-lock:\nfn f() {}\n"),
            "crates/fixture/src/lib.rs:2: [annotation/malformed] \
             mtm-lock annotation needs a `<name>` for the lock\n"
        );
    }

    #[test]
    fn hot_and_cold_on_one_fn_conflict_once() {
        assert_eq!(
            rendered("\n// mtm-hot: inner-loop\n// mtm-cold: per-trial setup\nfn f() {}\n"),
            "crates/fixture/src/lib.rs:4: [hotpath/conflict] \
             `f` is annotated both mtm-hot and mtm-cold\n"
        );
    }

    #[test]
    fn float_allow_keys_suppress_and_count_as_used() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            "
fn f(x: f64) -> bool {
    // mtm-allow: float-eq -- exact sentinel comparison by design
    x == 0.0
}
",
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
    }
}
