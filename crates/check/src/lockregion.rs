//! Interprocedural lock-region analysis.
//!
//! The serve daemon funnels every request through one dispatch mutex;
//! its p99 poll-latency gate only holds if nothing slow ever runs while
//! that lock is held — a property TSan cannot check, because it only
//! sees dynamically exercised paths. This pass makes held-lock hygiene
//! a static, ratcheted property:
//!
//! * **Acquisitions** are `.lock()` / `.read()` / `.write()` calls with
//!   empty argument lists, plus calls to functions annotated
//!   `// mtm-lock: <name>` (a *lock function* like serve's `lock_core`,
//!   whose return value is the guard). Locks are unified by name: a
//!   line-level `mtm-lock: <name>` directly above (or on) the
//!   acquisition line wins, then the receiver identifier
//!   (`self.core.lock()` → `core`), then an anonymous `file:line` name.
//! * **Regions** are the token span where the guard is live: for a
//!   statement-initial `let`, from the acquisition to an explicit
//!   same-level `drop(<binding>)` or the end of the enclosing scope;
//!   otherwise (match/if-let/while-let heads, temporaries) to the end
//!   of the statement. Match arms and early returns are covered by
//!   over-approximation — the region never ends early at a `return`.
//! * Each region is scanned — textually and through every function
//!   reachable from calls made inside it ([`CallGraph`] edges) — for
//!   three lints:
//!   1. **blocking-under-lock**: file/socket IO, `flush`/`sync_all`,
//!      thread `join`, sleeps, IO macros, or reaching an `mtm-hot` root
//!      (simulator/optimizer work) while the guard is held. Charged to
//!      the `[blocking_under_lock]` ratchet table unless sanctioned by
//!      `// mtm-allow: lock -- <reason>` at the acquisition or at the
//!      blocking site.
//!   2. **lock-order cycles**: every acquisition inside a held region
//!      adds an acquired-while-holding edge; any cycle in that graph
//!      (self-cycles = double-lock included) charges each participating
//!      edge to `[lock_order]`. Cycles are never allow-suppressible —
//!      only ratchet-budgeted.
//!   3. **guard-across-wait**: a guard other than the condvar's own
//!      held across `Condvar::wait*` is a hard `lock/guard-across-wait`
//!      diagnostic (a wait releases only its own mutex).
//!
//! Soundness caveats (see DESIGN.md §15): guards moved into structs or
//! returned from non-annotated functions escape the analysis; regions
//! are syntactic over-approximations (a guard bound by a statement-
//! initial `let` is assumed live to the end of the scope even when the
//! borrow checker would end it sooner); lock identity is name-based, so
//! two mutexes that share a receiver name are conflated (prefer
//! explicit `mtm-lock:` names). A `drop(<binding>)` nested inside a
//! conditional arm does **not** end the region — only a same-level drop
//! does.
//!
//! Stale annotations are errors: an `mtm-lock:` comment that no longer
//! sits above an acquisition or a function signature reports
//! `lockregion/stale`; unused `mtm-allow: lock` annotations are
//! reported `annotation/stale` by the shared allow bookkeeping.

use std::collections::{BTreeMap, BTreeSet};

use crate::annotations::{self, Annotations, At};
use crate::ast::{call_at, skip_strict_gate, Call, CallKind, Delim, FnItem, TokKind, Tree};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diag, Report};
use crate::ratchet::SiteCounts;

/// The allow key adjudicating this pass's findings.
pub const LOCK_KEY: &str = "lock";

/// Guard-producing methods: `m.lock()`, `rw.read()`, `rw.write()`.
/// Only empty argument lists qualify — `.read(buf)`/`.write(buf)` are
/// IO, not acquisitions (and deliberately not flagged as blocking
/// either: too noisy against in-memory readers).
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// `Condvar` wait entry points. The first identifier in the argument
/// list names the guard being handed over.
const WAIT_METHODS: &[&str] = &["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// Method calls that block: file/socket IO, thread join. `join` only
/// counts with an empty argument list (`handle.join()`), so string
/// `slice.join(", ")` stays clean.
const BLOCKING_METHODS: &[&str] = &[
    "flush",
    "sync_all",
    "sync_data",
    "write_all",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "read_line",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "open",
];

/// Macros that perform IO while formatting.
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// `Type::method` / `module::fn` paths that block.
const BLOCKING_QUALS: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("OpenOptions", "new"),
    ("fs", "read"),
    ("fs", "write"),
    ("fs", "read_to_string"),
    ("fs", "read_dir"),
    ("fs", "copy"),
    ("fs", "rename"),
    ("fs", "metadata"),
    ("fs", "remove_file"),
    ("fs", "remove_dir_all"),
    ("fs", "create_dir_all"),
    ("thread", "sleep"),
    ("TcpListener", "bind"),
    ("TcpStream", "connect"),
    ("UnixListener", "bind"),
    ("UnixStream", "connect"),
];

/// What the lock-region pass found (also feeds `analyze --locks`).
#[derive(Debug, Default)]
pub struct LockSummary {
    /// Every named lock seen, sorted.
    pub locks: Vec<String>,
    /// Guard regions analyzed.
    pub regions: usize,
    /// Unsuppressed blocking-under-lock sites, in deterministic order.
    pub sites: Vec<LockSite>,
    /// Acquired-while-holding edges (deduplicated, sorted).
    pub edges: Vec<LockEdge>,
    /// Rendered lock-order cycles (empty when the graph is acyclic).
    pub cycles: Vec<String>,
}

/// One unsuppressed blocking site inside a held-lock region. The
/// `file:line` anchor is the region's *acquisition* (the unit of
/// sanctioning); `what` names the actual blocking operation.
#[derive(Debug)]
pub struct LockSite {
    /// Ratchet unit charged for the site.
    pub unit: String,
    /// File containing the acquisition.
    pub file: String,
    /// Line of the acquisition anchoring the region.
    pub line: usize,
    /// Logical lock name.
    pub lock: String,
    /// What blocks, and where, if reached interprocedurally.
    pub what: String,
    /// Qualified function containing the region.
    pub in_fn: String,
}

/// One acquired-while-holding edge in the lock-order graph.
#[derive(Debug)]
pub struct LockEdge {
    /// Lock already held.
    pub holder: String,
    /// Lock acquired while holding it.
    pub acquired: String,
    /// File of the inner acquisition (or the region anchor when the
    /// edge comes from a reached lock function).
    pub file: String,
    /// Line of the inner acquisition.
    pub line: usize,
    /// Ratchet unit of the holding region.
    pub unit: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FindKind {
    Blocking,
    Wait,
}

/// A pre-adjudication finding. `anchor` is the acquisition site (in its
/// function) for allow coverage; `site` is the blocking operation
/// itself, so a line-level allow at either location covers.
#[derive(Debug)]
struct Finding<'a> {
    kind: FindKind,
    unit: &'a str,
    lock: String,
    what: String,
    in_fn: &'a str,
    anchor: At<'a>,
    site: At<'a>,
}

/// Per-function facts, computed once and consulted for every region
/// that reaches the function.
#[derive(Debug, Default)]
struct RawFacts {
    /// `(line, description)` blocking sites.
    blocking: Vec<(usize, String)>,
    /// `(line, lock name)` acquisitions.
    acqs: Vec<(usize, String)>,
    /// `(line, first argument identifier)` condvar waits.
    waits: Vec<(usize, Option<String>)>,
}

struct EdgeInfo {
    file: String,
    line: usize,
    unit: String,
}

struct Ctx<'a> {
    id: FnId,
    unit: &'a str,
    f: &'a FnItem,
}

struct Pass<'a> {
    graph: &'a CallGraph,
    /// `(file, acquisition line)` → explicit lock name.
    line_names: BTreeMap<(String, usize), String>,
    /// Bare function name → lock name, for `mtm-lock:` lock functions.
    lockfn_names: BTreeMap<String, String>,
    /// FnId → lock name, same functions (for reachability edges).
    lockfn_by_id: BTreeMap<FnId, String>,
    /// Well-formed `mtm-hot` roots — hot work must not run under locks.
    hot_roots: BTreeSet<FnId>,
    /// Per-function facts, indexed by FnId.
    facts: Vec<RawFacts>,
    findings: Vec<Finding<'a>>,
    edges: BTreeMap<(String, String), EdgeInfo>,
    regions: usize,
    locks: BTreeSet<String>,
}

/// Run the pass: bind the table's `mtm-lock` annotations, find guard
/// regions, scan them (and everything they reach) for the three lints,
/// and charge unsanctioned findings to `[blocking_under_lock]` /
/// `[lock_order]`.
pub fn run(
    graph: &CallGraph,
    annots: &mut Annotations,
    report: &mut Report,
    counts: &mut BTreeMap<String, SiteCounts>,
) -> LockSummary {
    let mut pass = Pass {
        graph,
        line_names: BTreeMap::new(),
        lockfn_names: BTreeMap::new(),
        lockfn_by_id: BTreeMap::new(),
        hot_roots: annots.hot.iter().map(|&(_, root)| root).collect(),
        facts: Vec::new(),
        findings: Vec::new(),
        edges: BTreeMap::new(),
        regions: 0,
        locks: BTreeSet::new(),
    };

    // 1. Syntactic acquisition lines per file, so line-level `mtm-lock`
    //    annotations can bind to the site directly below (or beside).
    let mut acq_lines: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for f in &graph.fns {
        guard_lines(&f.body, acq_lines.entry(&f.file).or_default());
    }

    // 2. Bind each `mtm-lock` annotation. Line-level binding (an
    //    acquisition on the next or same line) wins over fn-level; a
    //    comment matching neither is stale — a detached name silently
    //    un-names a lock.
    for (file, line, name) in &annots.locks {
        let site = acq_lines
            .get(file.as_str())
            .and_then(|s| [line + 1, *line].into_iter().find(|l| s.contains(l)));
        let lock_fn = || {
            let id = graph.fn_below(file, *line)?;
            Some((id, graph.fns.get(id)?))
        };
        if let Some(site) = site {
            pass.line_names.insert((file.clone(), site), name.clone());
        } else if let Some((id, f)) = lock_fn() {
            pass.lockfn_names.insert(f.name.clone(), name.clone());
            pass.lockfn_by_id.insert(id, name.clone());
        } else {
            report.push(Diag::new(
                "lockregion/stale",
                file,
                *line,
                format!(
                    "mtm-lock annotation (`{name}`) matches no lock acquisition \
                     below it and no function signature — reattach or remove it"
                ),
            ));
        }
    }

    // 3. Per-function facts (consulted for every region reaching the
    //    function), then the region scan itself.
    for f in &graph.fns {
        let mut raw = RawFacts::default();
        pass.collect_facts(&f.body, &f.file, &mut raw);
        pass.facts.push(raw);
    }
    for (id, (f, unit)) in graph.fns.iter().zip(&graph.units).enumerate() {
        pass.scan_scope(&f.body, &Ctx { id, unit, f });
    }

    // 4. Adjudicate findings: an allow at the acquisition anchor or at
    //    the blocking site suppresses; the rest charge the ratchet
    //    (blocking) or report a hard diagnostic (guard-across-wait).
    let mut summary = LockSummary {
        locks: pass.locks.iter().cloned().collect(),
        regions: pass.regions,
        ..LockSummary::default()
    };
    for f in &pass.findings {
        if annotations::covers(&mut annots.allows, LOCK_KEY, &[f.anchor, f.site]) {
            continue;
        }
        match f.kind {
            FindKind::Blocking => {
                counts
                    .entry(f.unit.to_string())
                    .or_default()
                    .blocking_under_lock += 1;
                summary.sites.push(LockSite {
                    unit: f.unit.to_string(),
                    file: f.anchor.file.to_string(),
                    line: f.anchor.line,
                    lock: f.lock.clone(),
                    what: f.what.clone(),
                    in_fn: f.in_fn.to_string(),
                });
            }
            FindKind::Wait => report.push(Diag::new(
                "lock/guard-across-wait",
                f.anchor.file,
                f.anchor.line,
                format!(
                    "guard of `{}` is {} — a wait releases only its own mutex; \
                     drop the guard first",
                    f.lock, f.what
                ),
            )),
        }
    }

    // 5. Lock-order cycles: an edge closes a cycle when its target can
    //    reach back to its source (self-edges trivially do). Each
    //    closing edge charges `[lock_order]` to the holding region's
    //    unit — cycles are never allow-suppressed.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (holder, acquired) in pass.edges.keys() {
        adj.entry(holder.as_str()).or_default().insert(acquired);
    }
    let reach = |from: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: Vec<&str> = vec![from];
        while let Some(n) = queue.pop() {
            if let Some(next) = adj.get(n) {
                for &m in next {
                    if seen.insert(m) {
                        queue.push(m);
                    }
                }
            }
        }
        seen
    };
    let mut cyclic_edges: Vec<(&str, &str, &EdgeInfo)> = Vec::new();
    for ((holder, acquired), info) in &pass.edges {
        let closes = holder == acquired || reach(acquired).contains(holder.as_str());
        if closes {
            counts.entry(info.unit.clone()).or_default().lock_order += 1;
            cyclic_edges.push((holder, acquired, info));
        }
    }
    // Group the closing edges into strongly-connected components for
    // the report: every node on a cycle shares mutual reachability.
    let mut groups: BTreeMap<&str, Vec<&(&str, &str, &EdgeInfo)>> = BTreeMap::new();
    for e in &cyclic_edges {
        let fwd = reach(e.0);
        let root = std::iter::once(e.0)
            .chain(
                fwd.iter()
                    .copied()
                    .filter(|n| reach(n).contains(e.0) || *n == e.0),
            )
            .min()
            .unwrap_or(e.0);
        groups.entry(root).or_default().push(e);
    }
    for (_, edges) in groups {
        let members: BTreeSet<&str> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
        let rendered: Vec<String> = edges
            .iter()
            .map(|(h, a, info)| {
                if h == a {
                    format!(
                        "`{h}` re-acquired (double-lock) at {}:{}",
                        info.file, info.line
                    )
                } else {
                    format!("`{h}` -> `{a}` at {}:{}", info.file, info.line)
                }
            })
            .collect();
        summary.cycles.push(format!(
            "cycle [{}]: {}",
            members.into_iter().collect::<Vec<_>>().join(", "),
            rendered.join("; ")
        ));
    }
    for ((holder, acquired), info) in &pass.edges {
        summary.edges.push(LockEdge {
            holder: holder.clone(),
            acquired: acquired.clone(),
            file: info.file.clone(),
            line: info.line,
            unit: info.unit.clone(),
        });
    }
    summary
}

impl<'a> Pass<'a> {
    /// Walk one lexical scope, tracking statement starts, and open a
    /// region for every acquisition found at this level. Every nested
    /// group is itself scanned as a scope (closure bodies, match arms,
    /// call arguments), so nested acquisitions get their own regions.
    fn scan_scope(&mut self, trees: &[Tree], ctx: &Ctx<'a>) {
        let mut i = 0usize;
        let mut stmt_start = 0usize;
        while i < trees.len() {
            if let Some(next) = skip_strict_gate(trees, i) {
                i = next;
                stmt_start = next;
                continue;
            }
            match trees.get(i) {
                Some(Tree::Tok(t)) if t.is_punct(";") => {
                    stmt_start = i + 1;
                }
                Some(Tree::Group(g)) => {
                    self.scan_scope(&g.trees, ctx);
                    // A brace group ends a statement at this level too:
                    // `if`/`for`/`while`/`match` statements carry no `;`.
                    // A brace that is mid-expression (struct literal,
                    // match tail) is followed by `;` or an operator, and
                    // the `;` arm resets again before the next statement.
                    if g.delim == Delim::Brace {
                        stmt_start = i + 1;
                    }
                }
                _ => {
                    if let Some(call) = call_at(trees, i) {
                        if let Some(lock) = self.acquires(&call, &ctx.f.file) {
                            self.region(trees, i, stmt_start, call.name.line, &lock, ctx);
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// The lock `call` acquires: a guard method or a call to a lock
    /// function. A guard's lock is named by an explicit line annotation,
    /// then by its receiver identifier, then anonymously by `file:line`.
    fn acquires(&self, call: &Call, file: &str) -> Option<String> {
        if is_guard(call) {
            let line = call.name.line;
            let name = self
                .line_names
                .get(&(file.to_string(), line))
                .cloned()
                .or_else(|| {
                    call.qual
                        .filter(|t| t.text != "self")
                        .map(|t| t.text.clone())
                })
                .unwrap_or_else(|| format!("{file}:{line}"));
            return Some(name);
        }
        if call.kind == CallKind::Macro {
            return None;
        }
        self.lockfn_names.get(&call.name.text).cloned()
    }

    /// Delimit the guard's live region and process it. `i` indexes the
    /// acquisition identifier, `stmt_start` the statement it sits in.
    fn region(
        &mut self,
        trees: &[Tree],
        i: usize,
        stmt_start: usize,
        acq_line: usize,
        lock: &str,
        ctx: &Ctx<'a>,
    ) {
        // The binding, when the statement is a `let` at this level.
        let head = trees.get(stmt_start..i).unwrap_or_default();
        let let_at = head
            .iter()
            .position(|t| t.tok().is_some_and(|t| t.is_ident("let")));
        let binding = let_at.and_then(|lp| {
            let pattern = head.get(lp + 1..)?;
            let eq = pattern
                .iter()
                .position(|t| t.tok().is_some_and(|t| t.is_punct("=")))?;
            first_binding_ident(pattern.get(..eq)?)
        });
        let after = i + 2;
        let end = match (let_at, &binding) {
            // Statement-initial `let`: the guard outlives the
            // statement — until a same-level `drop(binding)` or the
            // end of the scope. (A drop nested in a conditional arm
            // does not count; see the module docs.)
            (Some(0), Some(b)) => find_drop(trees, after, b).unwrap_or(trees.len()),
            // Mid-statement `let` (if-let / while-let) or a guard
            // temporary (match head, call argument): live to the end
            // of the statement — the next `;` or the first brace
            // group (the arms / body) at this level.
            _ => stmt_extent(trees, after),
        };
        let slice = trees.get(after..end).unwrap_or_default();

        self.regions += 1;
        self.locks.insert(lock.to_string());

        let own = ctx.f;
        let mut raw = RawFacts::default();
        self.collect_facts(slice, &own.file, &mut raw);
        let finding = |kind: FindKind, what: String, site: At<'a>| Finding {
            kind,
            unit: ctx.unit,
            lock: lock.to_string(),
            what,
            in_fn: &own.qual,
            anchor: At::in_fn(own, acq_line),
            site,
        };

        for (line, what) in &raw.blocking {
            let what = format!("{what} while `{lock}` is held");
            self.findings
                .push(finding(FindKind::Blocking, what, At::in_fn(own, *line)));
        }
        for (line, name) in &raw.acqs {
            add_edge(&mut self.edges, lock, name, &own.file, *line, ctx.unit);
        }
        for (line, arg) in &raw.waits {
            let own_guard = binding.is_some() && arg.as_deref() == binding.as_deref();
            if !own_guard {
                let what = format!("held across `Condvar::wait` at line {line}");
                self.findings
                    .push(finding(FindKind::Wait, what, At::in_fn(own, *line)));
            }
        }

        // Interprocedural: everything reachable from calls made while
        // the guard is held. Waits and directly-flagged blocking methods
        // are not resolved, so the bare names `wait` or `flush` cannot
        // fan out to unrelated workspace functions — the blocking
        // methods are already charged as direct sites.
        let graph = self.graph;
        let direct = |c: &Call| is_wait(c) || (c.kind == CallKind::Method && blocking(c).is_some());
        let calls = graph.calls_where(slice, &|c| !direct(c));
        let mut reached = BTreeMap::new();
        graph.walk(calls, &BTreeSet::new(), &mut reached);
        reached.remove(&ctx.id);
        for (&id, g, facts) in reached
            .keys()
            .filter_map(|id| Some((id, graph.fns.get(*id)?, self.facts.get(*id)?)))
        {
            if let Some(name) = self.lockfn_by_id.get(&id) {
                add_edge(&mut self.edges, lock, name, &own.file, acq_line, ctx.unit);
            }
            if self.hot_roots.contains(&id) {
                let what = format!(
                    "hot-path root `{}` (mtm-hot) is reachable while `{lock}` is held",
                    g.qual
                );
                self.findings
                    .push(finding(FindKind::Blocking, what, At::in_fn(g, g.line)));
            }
            for (line, what) in &facts.blocking {
                let what = format!(
                    "{what} in `{}` ({}:{line}) while `{lock}` is held",
                    g.qual, g.file
                );
                self.findings
                    .push(finding(FindKind::Blocking, what, At::in_fn(g, *line)));
            }
            for (line, name) in &facts.acqs {
                add_edge(&mut self.edges, lock, name, &g.file, *line, ctx.unit);
            }
            for (line, _) in &facts.waits {
                let what = format!(
                    "held across `Condvar::wait` in `{}` ({}:{line})",
                    g.qual, g.file
                );
                self.findings
                    .push(finding(FindKind::Wait, what, At::in_fn(g, *line)));
            }
        }
    }

    /// Deep token walk collecting acquisitions, waits, and blocking
    /// sites, skipping strict-invariants-gated statements.
    fn collect_facts(&self, trees: &[Tree], file: &str, out: &mut RawFacts) {
        let mut i = 0usize;
        while i < trees.len() {
            if let Some(next) = skip_strict_gate(trees, i) {
                i = next;
                continue;
            }
            if let Some(Tree::Group(g)) = trees.get(i) {
                self.collect_facts(&g.trees, file, out);
            } else if let Some(call) = call_at(trees, i) {
                let line = call.name.line;
                if let Some(lock) = self.acquires(&call, file) {
                    out.acqs.push((line, lock));
                } else if is_wait(&call) {
                    out.waits.push((line, first_ident(call.args)));
                } else if let Some(what) = blocking(&call) {
                    out.blocking.push((line, what));
                }
            }
            i += 1;
        }
    }
}

/// Record the acquired-while-holding edge `holder -> acquired` at its
/// first sighting.
fn add_edge(
    edges: &mut BTreeMap<(String, String), EdgeInfo>,
    holder: &str,
    acquired: &str,
    file: &str,
    line: usize,
    unit: &str,
) {
    edges
        .entry((holder.to_string(), acquired.to_string()))
        .or_insert(EdgeInfo {
            file: file.to_string(),
            line,
            unit: unit.to_string(),
        });
}

/// `.lock()` / `.read()` / `.write()` with an empty argument list: a
/// syntactic guard acquisition.
fn is_guard(call: &Call) -> bool {
    call.is_method(GUARD_METHODS) && call.args.is_empty()
}

/// `cv.wait*(guard, …)`: a condvar wait handing a guard over.
fn is_wait(call: &Call) -> bool {
    call.is_method(WAIT_METHODS) && !call.args.is_empty()
}

/// What blocks at `call`, if anything: an IO macro, a blocking method,
/// an empty-argument `.join()`, or a blocking path call.
fn blocking(call: &Call) -> Option<String> {
    let name = call.name.text.as_str();
    match (call.kind, call.qual) {
        (CallKind::Macro, _) if BLOCKING_MACROS.contains(&name) => {
            Some(format!("`{name}!` does IO"))
        }
        (CallKind::Method, _) if BLOCKING_METHODS.contains(&name) => {
            Some(format!("`.{name}(…)` does blocking IO"))
        }
        (CallKind::Method, _) if name == "join" && call.args.is_empty() => {
            Some("`.join()` blocks on a thread".to_string())
        }
        (CallKind::Path, Some(ty)) if BLOCKING_QUALS.contains(&(ty.text.as_str(), name)) => {
            Some(if ty.text == "thread" {
                "`thread::sleep` blocks".to_string()
            } else {
                format!("`{}::{name}` does blocking IO", ty.text)
            })
        }
        _ => None,
    }
}

/// Deep walk recording the lines of syntactic guard acquisitions, so
/// line-level `mtm-lock` annotations can bind before names resolve.
fn guard_lines(trees: &[Tree], out: &mut BTreeSet<usize>) {
    for (i, tree) in trees.iter().enumerate() {
        if let Tree::Group(g) = tree {
            guard_lines(&g.trees, out);
        } else if let Some(call) = call_at(trees, i).filter(is_guard) {
            out.insert(call.name.line);
        }
    }
}

/// End of the statement containing an acquisition with no outliving
/// binding: the next `;` at this level, or just past the first brace
/// group (match arms, loop body) — whichever comes first.
fn stmt_extent(trees: &[Tree], from: usize) -> usize {
    for (j, tree) in trees.iter().enumerate().skip(from) {
        match tree {
            Tree::Tok(t) if t.is_punct(";") => return j,
            Tree::Group(g) if g.delim == Delim::Brace => return j + 1,
            _ => {}
        }
    }
    trees.len()
}

/// First `drop(<binding>)` at this level at index `from` or later.
/// Returns the index of the `drop` identifier.
fn find_drop(trees: &[Tree], from: usize, binding: &str) -> Option<usize> {
    (from..trees.len()).find(|&j| {
        call_at(trees, j).is_some_and(|c| {
            c.kind != CallKind::Macro
                && c.name.is_ident("drop")
                && matches!(c.args, [arg] if arg.tok().is_some_and(|t| t.is_ident(binding)))
        })
    })
}

/// The bound name in a `let` pattern: the first lowercase (or `_`)
/// identifier, descending into tuple/constructor groups, skipping
/// binding modifiers. `Ok(mut core)` → `core`.
fn first_binding_ident(pattern: &[Tree]) -> Option<String> {
    for t in pattern {
        match t {
            Tree::Tok(tok)
                if tok.kind == TokKind::Ident
                    && !matches!(tok.text.as_str(), "mut" | "ref" | "box")
                    && tok
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_') =>
            {
                return Some(tok.text.clone());
            }
            Tree::Group(g) => {
                if let Some(found) = first_binding_ident(&g.trees) {
                    return Some(found);
                }
            }
            _ => {}
        }
    }
    None
}

/// First identifier at the top level of an argument list.
fn first_ident(trees: &[Tree]) -> Option<String> {
    trees.iter().find_map(|t| {
        t.tok()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
    })
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze_source;

    #[test]
    fn blocking_io_under_held_guard_is_charged() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<std::fs::File>) {
    let Ok(g) = m.lock() else { return };
    let _ = g.sync_all();
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].blocking_under_lock, 1);
        assert_eq!(a.lock.sites.len(), 1);
        assert_eq!(a.lock.sites[0].lock, "m");
        assert!(
            a.lock.sites[0].what.contains("sync_all"),
            "{:?}",
            a.lock.sites
        );
        // Anchored at the acquisition, not the blocking call.
        assert_eq!(a.lock.sites[0].line, 4);
    }

    #[test]
    fn dropped_guard_releases_the_region() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<u32>, file: &std::fs::File) {
    let Ok(g) = m.lock() else { return };
    let _ = *g;
    drop(g);
    let _ = file.sync_all();
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
        assert_eq!(a.lock.regions, 1);
    }

    #[test]
    fn reached_function_blocking_is_charged_to_the_region() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<u32>) {
    let Ok(g) = m.lock() else { return };
    helper(*g);
}
fn helper(x: u32) {
    let _ = std::fs::File::open(format!("{x}"));
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].blocking_under_lock, 1);
        assert!(
            a.lock.sites[0].what.contains("helper"),
            "{:?}",
            a.lock.sites
        );
    }

    #[test]
    fn lock_allow_at_the_acquisition_suppresses_the_region() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<std::fs::File>) {
    // mtm-allow: lock -- the file lock exists to serialize this write
    let Ok(g) = m.lock() else { return };
    let _ = g.sync_all();
    let _ = g.sync_data();
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn lock_order_cycle_charges_each_closing_edge() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let Ok(ga) = a.lock() else { return };
    let Ok(gb) = b.lock() else { return };
    let _ = (*ga, *gb);
}
fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let Ok(gb) = b.lock() else { return };
    let Ok(ga) = a.lock() else { return };
    let _ = (*ga, *gb);
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].lock_order, 2);
        assert_eq!(a.lock.cycles.len(), 1, "{:?}", a.lock.cycles);
        assert!(
            a.lock.cycles[0].contains("`a` -> `b`"),
            "{:?}",
            a.lock.cycles
        );
    }

    #[test]
    fn double_lock_is_a_self_cycle() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<u32>) {
    let Ok(g) = m.lock() else { return };
    let Ok(g2) = m.lock() else { return };
    let _ = (*g, *g2);
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].lock_order, 1);
        assert!(
            a.lock.cycles[0].contains("double-lock"),
            "{:?}",
            a.lock.cycles
        );
    }

    #[test]
    fn foreign_guard_across_wait_is_a_hard_diag() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::{Condvar, Mutex};
fn f(m: &Mutex<u32>, other: &Mutex<u32>, cv: &Condvar) {
    let Ok(g) = m.lock() else { return };
    let Ok(o) = other.lock() else { return };
    let _ = (*o, cv.wait(g));
}
"#,
        );
        let rendered = a.report.render();
        // The `other` region holds `o` across `cv.wait(g)`; the `m`
        // region hands its own guard over, which is fine.
        assert_eq!(
            rendered.matches("lock/guard-across-wait").count(),
            1,
            "{rendered}"
        );
        assert!(rendered.contains("`other`"), "{rendered}");
    }

    #[test]
    fn own_guard_wait_loop_is_clean() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::{Condvar, Mutex};
fn f(m: &Mutex<bool>, cv: &Condvar) {
    let Ok(mut g) = m.lock() else { return };
    while !*g {
        g = match cv.wait(g) {
            Ok(next) => next,
            Err(_) => return,
        };
    }
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert!(a.counts.is_empty(), "{:?}", a.counts);
    }

    #[test]
    fn lock_fn_annotation_names_the_callers_region() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::{Mutex, MutexGuard};
struct D { core: Mutex<u32> }
impl D {
    // mtm-lock: core
    fn lock_core(&self) -> MutexGuard<'_, u32> {
        match self.core.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
    fn submit(&self) {
        let g = self.lock_core();
        let _ = std::fs::read_to_string("state");
        let _ = *g;
    }
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].blocking_under_lock, 1);
        assert_eq!(a.lock.sites[0].lock, "core", "{:?}", a.lock.sites);
        assert!(
            a.lock.sites[0].in_fn.contains("submit"),
            "{:?}",
            a.lock.sites
        );
    }

    #[test]
    fn match_bound_guard_outlives_its_statement() {
        // The lock_core idiom inlined: the guard escapes the `match`
        // statement, so blocking after it is still inside the region.
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(m: &Mutex<std::fs::File>) {
    let g = match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let _ = g.sync_all();
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].blocking_under_lock, 1);
    }

    #[test]
    fn hot_root_reached_under_lock_is_blocking() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
// mtm-hot: inner-loop
fn step() {}
fn f(m: &Mutex<u32>) {
    let Ok(g) = m.lock() else { return };
    step();
    let _ = *g;
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.counts["crates/fixture"].blocking_under_lock, 1);
        assert!(
            a.lock.sites[0].what.contains("mtm-hot"),
            "{:?}",
            a.lock.sites
        );
    }

    #[test]
    fn stale_lock_annotation_is_an_error() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
// mtm-lock: ghost
static X: u32 = 0;
static Y: u32 = 0;
static Z: u32 = 0;

fn far_away() {}
"#,
        );
        let rendered = a.report.render();
        assert!(rendered.contains("lockregion/stale"), "{rendered}");
        assert!(rendered.contains("`ghost`"), "{rendered}");
    }

    #[test]
    fn line_annotation_overrides_the_receiver_name() {
        let a = analyze_source(
            "crates/fixture/src/lib.rs",
            r#"
use std::sync::Mutex;
fn f(inner: &Mutex<std::fs::File>) {
    // mtm-lock: journal
    let Ok(g) = inner.lock() else { return };
    let _ = g.sync_all();
}
"#,
        );
        assert!(a.report.is_empty(), "{}", a.report.render());
        assert_eq!(a.lock.sites[0].lock, "journal", "{:?}", a.lock.sites);
    }
}
