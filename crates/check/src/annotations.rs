//! The annotation table: every `mtm-allow:`, `mtm-hot:`, `mtm-cold:` and
//! `mtm-lock:` comment, read once and shared by every `analyze` pass.
//!
//! * [`read`] turns one file's comments into `{file, line, kind}`
//!   entries and reports the malformed ones. Only the first line of a
//!   wrapped comment carries the marker; continuation lines are plain
//!   text.
//! * [`Annotations::resolve`] reads every file and binds the fn-level
//!   markers to the fn directly below them ([`CallGraph::fn_below`]):
//!   `mtm-hot` roots and `mtm-cold` cuts are resolved here, once, for
//!   the hot-path and lock passes; `mtm-lock` names go to the lock pass,
//!   which binds them to an acquisition line before a fn.
//! * [`covers`] is the one allow adjudicator: every pass asks it whether
//!   an `mtm-allow` sanctions a finding, and it marks the allow used, so
//!   an allow no pass used is reported `annotation/stale`.

use std::collections::BTreeSet;

use crate::ast::{CrateAst, FileAst, FnItem};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diag, Report};

/// Every valid `mtm-allow` key: the taint keys ([`crate::taint`]), the
/// float keys ([`crate::analyze`]), `alloc` ([`crate::hotpath`]) and
/// `lock` ([`crate::lockregion`]).
pub const KEYS: &[&str] = &[
    "wall-clock",
    "rng",
    "hash-iter",
    "thread-id",
    "addr",
    "float-eq",
    "float-ord",
    "alloc",
    "lock",
];

/// What an annotation says.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `// mtm-allow: <key>[, <key>…] -- <reason>`.
    Allow {
        /// The allow keys it grants.
        keys: Vec<String>,
    },
    /// `// mtm-hot: <key>` above a hot-loop root.
    Hot {
        /// The loop's name in the report.
        key: String,
    },
    /// `// mtm-cold: <reason>` above a fn the hot walk does not enter.
    Cold,
    /// `// mtm-lock: <name>` above an acquisition or a lock fn.
    Lock {
        /// The lock's name.
        name: String,
    },
}

/// One entry of the annotation table.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// File the comment lives in.
    pub file: String,
    /// Line the comment starts on.
    pub line: usize,
    /// What it says.
    pub kind: Kind,
}

/// Read one file's annotations. Malformed ones are reported
/// (`annotation/malformed`, `annotation/missing-reason`) and left out;
/// an allow with an unknown key is reported (`annotation/unknown-key`)
/// and kept, so it does not report stale as well.
pub fn read(file: &FileAst, report: &mut Report) -> Vec<Annotation> {
    let mut out = Vec::new();
    for c in &file.comments {
        let text = c.text.trim();
        let mut flag =
            |code: &str, msg: String| report.push(Diag::new(code, &file.rel, c.line, msg));
        let malformed = "annotation/malformed";
        let kind = if let Some(rest) = text.strip_prefix("mtm-allow:") {
            let (keys, reason) = rest
                .split_once("--")
                .map_or((rest, ""), |(k, r)| (k, r.trim()));
            let keys: Vec<String> = keys
                .split(',')
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .map(String::from)
                .collect();
            if keys.is_empty() {
                flag(malformed, "mtm-allow annotation lists no keys".into());
                continue;
            }
            for key in keys.iter().filter(|k| !KEYS.contains(&k.as_str())) {
                let valid = KEYS.join(", ");
                flag(
                    "annotation/unknown-key",
                    format!("unknown mtm-allow key `{key}` (valid: {valid})"),
                );
            }
            if reason.is_empty() {
                let msg = "mtm-allow annotation needs `-- <reason>`";
                flag("annotation/missing-reason", msg.into());
                continue;
            }
            Kind::Allow { keys }
        } else if let Some(key) = text.strip_prefix("mtm-hot:").map(str::trim) {
            if key.is_empty() {
                let msg = "mtm-hot annotation needs a key naming the hot loop";
                flag(malformed, msg.into());
                continue;
            }
            Kind::Hot { key: key.into() }
        } else if let Some(reason) = text.strip_prefix("mtm-cold:").map(str::trim) {
            if reason.is_empty() {
                flag(malformed, "mtm-cold annotation needs a `<reason>`".into());
                continue;
            }
            Kind::Cold
        } else if let Some(name) = text.strip_prefix("mtm-lock:").map(str::trim) {
            if name.is_empty() {
                let msg = "mtm-lock annotation needs a `<name>` for the lock";
                flag(malformed, msg.into());
                continue;
            }
            Kind::Lock { name: name.into() }
        } else {
            continue;
        };
        out.push(Annotation {
            file: file.rel.clone(),
            line: c.line,
            kind,
        });
    }
    out
}

/// One `mtm-allow` annotation and whether a pass has used it.
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

/// Where a finding sits, for allow coverage: `line` of `file`, inside
/// the fn whose signature and closing brace lines are `span`.
#[derive(Debug, Clone, Copy)]
pub struct At<'a> {
    /// File of the finding.
    pub file: &'a str,
    /// Line of the finding.
    pub line: usize,
    /// `(signature line, closing-brace line)` of the enclosing fn.
    pub span: (usize, usize),
}

impl<'a> At<'a> {
    /// `line` inside `f`.
    pub fn in_fn(f: &'a FnItem, line: usize) -> At<'a> {
        At {
            file: &f.file,
            line,
            span: (f.line, f.end_line),
        }
    }
}

impl Allow {
    /// Does this allow cover a `key` finding at `at`? Fn-level
    /// annotations sit within three lines above the signature
    /// (attributes/doc lines in between are fine); line-level ones cover
    /// their own line and the next.
    fn covers(&self, key: &str, at: &At<'_>) -> bool {
        if self.file != at.file || !self.keys.iter().any(|k| k == key) {
            return false;
        }
        let (fn_line, fn_end) = at.span;
        let fn_level = self.line < fn_line && fn_line - self.line <= 3;
        let line_level = (fn_line..=fn_end).contains(&self.line)
            && (at.line == self.line || at.line == self.line + 1);
        fn_level || line_level
    }
}

/// The allow adjudicator: marks used the first allow for `key` that
/// covers the finding at any of `at`, and says whether one did.
pub fn covers(allows: &mut [Allow], key: &str, at: &[At<'_>]) -> bool {
    let hit = allows
        .iter_mut()
        .find(|a| at.iter().any(|at| a.covers(key, at)));
    hit.map(|a| a.used = true).is_some()
}

/// The annotation table, resolved against the call graph.
#[derive(Debug, Default)]
pub struct Annotations {
    /// Every well-formed `mtm-allow`, in table order.
    pub allows: Vec<Allow>,
    /// `(key, root)` per bound `mtm-hot` annotation, in table order.
    pub hot: Vec<(String, FnId)>,
    /// Functions bound by `mtm-cold`: the hot walk does not enter them.
    pub cold: BTreeSet<FnId>,
    /// `(file, line, name)` per `mtm-lock` annotation, in table order;
    /// the lock pass binds each (see [`crate::lockregion`]).
    pub locks: Vec<(String, usize, String)>,
}

impl Annotations {
    /// Read every file's annotations and bind the `mtm-hot`/`mtm-cold`
    /// markers to the fn below them. A marker with no fn below reports
    /// `hotpath/stale` (a detached marker silently un-guards or un-cuts
    /// a loop), and a fn that is both a root and a cut reports
    /// `hotpath/conflict`.
    pub fn resolve(crates: &[CrateAst], graph: &CallGraph, report: &mut Report) -> Annotations {
        let mut out = Annotations::default();
        for file in crates.iter().flat_map(|k| &k.files) {
            for Annotation { file, line, kind } in read(file, report) {
                let stale = |what: String| {
                    let msg = format!(
                        "{what} is not within 3 lines above a non-test function \
                         signature — reattach or remove it"
                    );
                    Diag::new("hotpath/stale", &file, line, msg)
                };
                match kind {
                    Kind::Allow { keys } => out.allows.push(Allow {
                        file,
                        line,
                        keys,
                        used: false,
                    }),
                    Kind::Hot { key } => match graph.fn_below(&file, line) {
                        Some(id) => out.hot.push((key, id)),
                        None => report.push(stale(format!("mtm-hot annotation (`{key}`)"))),
                    },
                    Kind::Cold => match graph.fn_below(&file, line) {
                        Some(id) => {
                            out.cold.insert(id);
                        }
                        None => report.push(stale("mtm-cold annotation".into())),
                    },
                    Kind::Lock { name } => out.locks.push((file, line, name)),
                }
            }
        }
        for f in out.hot.iter().filter_map(|&(_, root)| {
            let f = graph.fns.get(root)?;
            out.cold.contains(&root).then_some(f)
        }) {
            report.push(Diag::new(
                "hotpath/conflict",
                &f.file,
                f.line,
                format!("`{}` is annotated both mtm-hot and mtm-cold", f.qual),
            ));
        }
        out
    }
}
