//! Function-level call graph over the parsed workspace.
//!
//! Resolution is name-based and deliberately conservative: a call edge is
//! drawn to *every* workspace function the callee name could refer to.
//! Method calls (`recv.name(...)`) resolve by bare name across all impl
//! and trait blocks, never to a free fn; path calls (`Type::name(...)`)
//! try the qualified key first and fall back to the bare name; free
//! calls resolve by bare name. Over-approximating edges is the right
//! failure mode for a taint pass — a spurious edge can only create a
//! finding that an `mtm-allow` review then adjudicates, never hide one.
//!
//! Functions under `#[cfg(test)]` are excluded from the graph entirely:
//! test code is allowed to be nondeterministic and panicky.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{call_at, Call, CallKind, CrateAst, FnItem, TokKind, Tree};

/// Index of one function in [`CallGraph::fns`].
pub type FnId = usize;

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, in crate/file/order of appearance.
    pub fns: Vec<FnItem>,
    /// Ratchet unit owning each function (parallel to `fns`).
    pub units: Vec<String>,
    /// `callees[f]` = functions `f` has a call edge to.
    pub callees: Vec<Vec<FnId>>,
    /// bare name → candidate fn ids.
    by_name: BTreeMap<String, Vec<FnId>>,
    /// `Type::name` → candidate fn ids.
    by_qual: BTreeMap<String, Vec<FnId>>,
    /// Every `impl`/`trait` type name seen in the workspace.
    impl_types: BTreeSet<String>,
}

impl CallGraph {
    /// Build the graph from parsed crates.
    pub fn build(crates: &[CrateAst]) -> CallGraph {
        let mut g = CallGraph::default();
        for krate in crates {
            for file in &krate.files {
                for f in &file.fns {
                    if f.in_test {
                        continue;
                    }
                    let id = g.fns.len();
                    g.by_name.entry(f.name.clone()).or_default().push(id);
                    if let Some(ty) = &f.impl_type {
                        g.by_qual
                            .entry(format!("{ty}::{}", f.name))
                            .or_default()
                            .push(id);
                        g.impl_types.insert(ty.clone());
                    }
                    g.fns.push(f.clone());
                    g.units.push(krate.unit.clone());
                }
            }
        }
        g.callees = g
            .fns
            .iter()
            .enumerate()
            .map(|(caller, f)| {
                let targets = g.calls_in(&f.body);
                targets.into_iter().filter(|&c| c != caller).collect()
            })
            .collect();
        g
    }

    /// Candidate functions for a bare callee name.
    pub fn resolve_name(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Candidate functions for a `Type::name` path.
    pub fn resolve_qual(&self, qual: &str) -> &[FnId] {
        self.by_qual.get(qual).map_or(&[], |v| v.as_slice())
    }

    /// The nearest non-test function whose signature sits within three
    /// lines below `line` of `file`: the fn a fn-level marker
    /// (`mtm-hot`, `mtm-cold`, a lock fn's `mtm-lock`) binds to.
    pub fn fn_below(&self, file: &str, line: usize) -> Option<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.line > line && f.line - line <= 3)
            .min_by_key(|(_, f)| f.line)
            .map(|(id, _)| id)
    }

    /// The call-graph walk: extend `reached` with every function
    /// reachable *from* `seeds` along callee edges, never entering a
    /// function in `cut` (a seed is always entered). Each newly reached
    /// function maps to the seed its walk started from; a seed already
    /// in `reached` is not walked again.
    pub fn walk(
        &self,
        seeds: impl IntoIterator<Item = FnId>,
        cut: &BTreeSet<FnId>,
        reached: &mut BTreeMap<FnId, FnId>,
    ) {
        let mut stack: Vec<(FnId, FnId)> = Vec::new();
        for seed in seeds {
            if let Entry::Vacant(e) = reached.entry(seed) {
                e.insert(seed);
                stack.push((seed, seed));
            }
        }
        while let Some((f, origin)) = stack.pop() {
            for &next in self.callees.get(f).into_iter().flatten() {
                if cut.contains(&next) {
                    continue;
                }
                if let Entry::Vacant(e) = reached.entry(next) {
                    e.insert(origin);
                    stack.push((next, origin));
                }
            }
        }
    }

    /// Every closure literal passed as a call argument, with the call's
    /// candidate callees. Closure bodies live in their *defining*
    /// function's token trees, so a body-level walk attributes their
    /// contents to the definer — but the code actually *runs* wherever
    /// the callee invokes it. Seams let the hot-path pass follow that
    /// indirection: when a callee is hot but the definer is not, the
    /// closure body still gets scanned (see [`crate::hotpath`]).
    pub fn closure_seams(&self) -> Vec<ClosureSeam> {
        let mut out = Vec::new();
        for (owner, f) in self.fns.iter().enumerate() {
            collect_seams(&f.body, self, owner, &mut out);
        }
        out
    }

    /// Resolve every call in arbitrary token trees (a closure body) to
    /// candidate fn ids, with the same rules as graph construction.
    pub fn calls_in(&self, trees: &[Tree]) -> BTreeSet<FnId> {
        self.calls_where(trees, &|_| true)
    }

    /// [`calls_in`](Self::calls_in), resolving only the call sites
    /// `keep` accepts.
    pub fn calls_where(&self, trees: &[Tree], keep: &dyn Fn(&Call) -> bool) -> BTreeSet<FnId> {
        let mut out = BTreeSet::new();
        collect_calls(trees, self, keep, &mut out);
        out
    }
}

/// A closure literal passed as a call argument (see
/// [`CallGraph::closure_seams`]).
#[derive(Debug)]
pub struct ClosureSeam {
    /// Function whose body textually contains the closure.
    pub owner: FnId,
    /// Candidate callees the closure is handed to (never the owner).
    pub callees: Vec<FnId>,
    /// Token trees of the closure argument: params and body.
    pub body: Vec<Tree>,
}

/// Scan a token-tree body for the call sites `keep` accepts (a macro is
/// never one) and record their resolved targets.
fn collect_calls(
    trees: &[Tree],
    g: &CallGraph,
    keep: &dyn Fn(&Call) -> bool,
    out: &mut BTreeSet<FnId>,
) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group(grp) = tree {
            collect_calls(&grp.trees, g, keep, out);
        } else if let Some(call) = call_at(trees, i) {
            if call.kind != CallKind::Macro && keep(&call) {
                resolve_call(&call, g, out);
            }
        }
    }
}

/// Resolve one call site into candidate targets:
/// - `recv.name(…)` — method call: by bare name among impl/trait fns.
/// - `Type::name(…)` — path call: `Type::name`, else by bare name.
/// - `name(…)` — free call: by bare name.
fn resolve_call(call: &Call, g: &CallGraph, out: &mut BTreeSet<FnId>) {
    let name = call.name.text.as_str();
    let by_name = g.resolve_name(name).iter().copied();
    match call.kind {
        CallKind::Path => {
            let ty = call.qual.map(|t| t.text.as_str());
            let qual_hits = ty.map_or(&[][..], |ty| g.resolve_qual(&format!("{ty}::{name}")));
            if !qual_hits.is_empty() {
                out.extend(qual_hits.iter().copied());
                return;
            }
            // A capitalized segment the workspace has no impl for is an
            // external type (`Vec::new`, `Instant::now`): its methods
            // can never land in workspace code, so the bare-name
            // fallback would only fabricate edges to every same-named
            // constructor. A primitive type (`u64::from`) is external
            // the same way. Module paths (lowercase) and `Self`/generic
            // receivers keep the conservative fallback.
            let external_type = ty.is_some_and(|t| {
                !g.impl_types.contains(t)
                    && (PRIMITIVE_TYPES.contains(&t)
                        || (t != "Self"
                            && t.chars().next().is_some_and(char::is_uppercase)
                            && t.len() > 2))
            });
            if !external_type {
                out.extend(by_name);
            }
        }
        // Only a fn inside an `impl`/`trait` block has a receiver, so
        // free fns sharing the name (`push`, `load`) are never a method
        // call's target.
        CallKind::Method => {
            out.extend(by_name.filter(|&id| g.fns.get(id).is_some_and(|f| f.impl_type.is_some())))
        }
        CallKind::Free | CallKind::Macro => out.extend(by_name),
    }
}

/// The primitive types a path call can be qualified with (`u64::from`,
/// `f64::max`, `str::len`).
const PRIMITIVE_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// Std iterator/`Option`/`Result` adaptors: method calls with these
/// names overwhelmingly dispatch to the standard library, not to a
/// same-named workspace method, so closures handed to them stay
/// attributed to their textual owner instead of fanning out through
/// bare-name collisions (e.g. every `.map(…)` edging into `Mat::map`).
const STD_ADAPTORS: &[&str] = &[
    "map",
    "map_or",
    "map_or_else",
    "map_err",
    "map_while",
    "filter",
    "filter_map",
    "flat_map",
    "for_each",
    "fold",
    "try_fold",
    "scan",
    "inspect",
    "and_then",
    "or_else",
    "unwrap_or_else",
    "ok_or_else",
    "take_while",
    "skip_while",
    "position",
    "rposition",
    "find",
    "find_map",
    "any",
    "all",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search_by",
    "binary_search_by_key",
    "dedup_by",
    "dedup_by_key",
    "retain",
    "partition",
    "then",
    "is_some_and",
    "is_none_or",
    "get_or_insert_with",
    "resize_with",
];

/// Scan a body for call sites that pass closure literals and record one
/// seam per closure argument.
fn collect_seams(trees: &[Tree], g: &CallGraph, owner: FnId, out: &mut Vec<ClosureSeam>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group(grp) = tree {
            collect_seams(&grp.trees, g, owner, out);
            continue;
        }
        let Some(call) = call_at(trees, i) else {
            continue;
        };
        if call.kind == CallKind::Macro || call.is_method(STD_ADAPTORS) {
            continue;
        }
        let spans = closure_spans(call.args);
        if spans.is_empty() {
            continue;
        }
        let mut callees = BTreeSet::new();
        resolve_call(&call, g, &mut callees);
        callees.remove(&owner);
        if !callees.is_empty() {
            let callees: Vec<FnId> = callees.into_iter().collect();
            for body in spans {
                out.push(ClosureSeam {
                    owner,
                    callees: callees.clone(),
                    body,
                });
            }
        }
    }
}

/// Top-level closure literals inside a call's argument trees: each span
/// runs from its opening `|`/`||` to the next top-level comma. Bitwise
/// `|` between arguments would over-match — the conservative direction
/// for this pass, and the workspace style keeps bit-ops parenthesised.
fn closure_spans(trees: &[Tree]) -> Vec<Vec<Tree>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let (pipe, empty_params) = match &trees[i] {
            Tree::Tok(t) if t.kind == TokKind::Punct => (t.text == "|", t.text == "||"),
            _ => (false, false),
        };
        if !(pipe || empty_params) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 1;
        if pipe {
            // Skip the parameter list: commas before the closing `|`
            // belong to it, not to the argument list.
            while j < trees.len() && !matches!(&trees[j], Tree::Tok(t) if t.is_punct("|")) {
                j += 1;
            }
            j += 1;
        }
        while j < trees.len() && !matches!(&trees[j], Tree::Tok(t) if t.is_punct(",")) {
            j += 1;
        }
        out.push(trees[start..j].to_vec());
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{parse_file, CrateAst};

    fn graph_of(src: &str) -> CallGraph {
        let file = parse_file("x.rs", src);
        let krate = CrateAst {
            unit: "crates/x".into(),
            files: vec![file],
            orphans: vec![],
        };
        CallGraph::build(&[krate])
    }

    #[test]
    fn free_and_method_calls_make_edges() {
        let g = graph_of(
            r#"
fn leaf() {}
fn caller() { leaf(); }
struct S;
impl S {
    fn method(&self) { helper(); }
}
fn helper() {}
fn uses_method(s: &S) { s.method(); }
"#,
        );
        let leaf = g.fns.iter().position(|f| f.name == "leaf").unwrap();
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let method = g.fns.iter().position(|f| f.name == "method").unwrap();
        let uses = g.fns.iter().position(|f| f.name == "uses_method").unwrap();
        assert!(g.callees[caller].contains(&leaf));
        assert!(g.callees[uses].contains(&method));
    }

    #[test]
    fn method_calls_never_resolve_to_free_functions() {
        let g = graph_of(
            r#"
fn push(_x: u32) {}
struct Buf;
impl Buf { fn push(&mut self, _x: u32) {} }
fn by_method(v: &mut Vec<u32>) { v.push(1); }
fn by_name() { push(1); }
"#,
        );
        let free = g
            .fns
            .iter()
            .position(|f| f.name == "push" && f.impl_type.is_none())
            .unwrap();
        let method = g
            .fns
            .iter()
            .position(|f| f.name == "push" && f.impl_type.is_some())
            .unwrap();
        let by_method = g.fns.iter().position(|f| f.name == "by_method").unwrap();
        let by_name = g.fns.iter().position(|f| f.name == "by_name").unwrap();
        assert_eq!(g.callees[by_method], vec![method]);
        // A free call keeps the conservative bare-name fan-out.
        assert!(g.callees[by_name].contains(&free));
    }

    #[test]
    fn qualified_calls_prefer_the_typed_impl() {
        let g = graph_of(
            r#"
struct A;
struct B;
impl A { fn make() -> A { A } }
impl B { fn make() -> B { B } }
fn build() { let _ = A::make(); }
"#,
        );
        let a_make = g
            .fns
            .iter()
            .position(|f| f.name == "make" && f.impl_type.as_deref() == Some("A"))
            .unwrap();
        let b_make = g
            .fns
            .iter()
            .position(|f| f.name == "make" && f.impl_type.as_deref() == Some("B"))
            .unwrap();
        let build = g.fns.iter().position(|f| f.name == "build").unwrap();
        assert!(g.callees[build].contains(&a_make));
        assert!(!g.callees[build].contains(&b_make));
    }

    #[test]
    fn test_functions_are_excluded() {
        let g = graph_of("#[cfg(test)]\nmod tests { fn t() {} }\nfn real() {}");
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn external_type_constructors_do_not_fan_out() {
        let g = graph_of(
            r#"
struct Sim;
impl Sim { fn new() -> Sim { Sim } }
impl From<u8> for Sim { fn from(_: u8) -> Sim { Sim } }
fn hot() { let _v: Vec<u32> = Vec::new(); }
fn widen(x: u32) -> u64 { u64::from(x) }
fn generic<T: Default>() { let _ = T::default(); }
fn default() {}
"#,
        );
        let hot = g.fns.iter().position(|f| f.name == "hot").unwrap();
        let sim_new = g
            .fns
            .iter()
            .position(|f| f.name == "new" && f.impl_type.as_deref() == Some("Sim"))
            .unwrap();
        // `Vec::new` is an external constructor: no edge to `Sim::new`.
        assert!(!g.callees[hot].contains(&sim_new));
        // `u64::from` is the primitive's conversion: no edge to `Sim::from`.
        let widen = g.fns.iter().position(|f| f.name == "widen").unwrap();
        let sim_from = g.fns.iter().position(|f| f.name == "from").unwrap();
        assert!(!g.callees[widen].contains(&sim_from));
        // Short generic receivers keep the conservative bare fallback.
        let generic = g.fns.iter().position(|f| f.name == "generic").unwrap();
        let default = g.fns.iter().position(|f| f.name == "default").unwrap();
        assert!(g.callees[generic].contains(&default));
    }

    #[test]
    fn closure_seams_link_definer_to_callee() {
        let g = graph_of(
            r#"
fn apply(f: impl Fn()) { f(); }
fn definer() { apply(|| helper()); }
fn helper() {}
"#,
        );
        let apply = g.fns.iter().position(|f| f.name == "apply").unwrap();
        let definer = g.fns.iter().position(|f| f.name == "definer").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        let seams = g.closure_seams();
        let seam = seams
            .iter()
            .find(|s| s.owner == definer)
            .expect("seam recorded");
        assert_eq!(seam.callees, vec![apply]);
        assert!(g.calls_in(&seam.body).contains(&helper));
    }

    #[test]
    fn closure_spans_handle_params_and_multiple_args() {
        let g = graph_of(
            r#"
fn zip_with(f: impl Fn(u32, u32)) { f(1, 2); }
fn caller() { zip_with(|a, b| { combine(a, b); }); }
fn combine(_a: u32, _b: u32) {}
fn plain() { zip_with(noop_named); }
fn noop_named(_a: u32, _b: u32) {}
"#,
        );
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let plain = g.fns.iter().position(|f| f.name == "plain").unwrap();
        let combine = g.fns.iter().position(|f| f.name == "combine").unwrap();
        let seams = g.closure_seams();
        let seam = seams.iter().find(|s| s.owner == caller).expect("seam");
        assert!(g.calls_in(&seam.body).contains(&combine));
        // A named-function argument is not a closure literal.
        assert!(!seams.iter().any(|s| s.owner == plain));
    }
}
