//! A self-contained Rust surface parser: lexer, token trees, items.
//!
//! The workspace has no crates.io access, so instead of `syn` the
//! analyzer brings its own three-stage front end:
//!
//! 1. [`lex`] — a character-accurate lexer producing [`Tok`]s with line
//!    numbers, plus the comment stream (annotations like `mtm-allow:`
//!    live in comments). Strings (plain, raw, byte), char-vs-lifetime
//!    disambiguation, nested block comments and multi-char operators are
//!    handled exactly, so `".unwrap()"` in a string literal is a literal,
//!    not a panic site.
//! 2. [`to_trees`] — token trees: `()`/`[]`/`{}` groups are matched into
//!    nested [`Tree`]s, which is what makes postfix indexing, macro
//!    arguments and attribute payloads structurally recognizable.
//! 3. [`extract_items`] / [`parse_crate`] — item extraction with full
//!    module resolution: inline `mod` blocks recurse, out-of-line
//!    `mod x;` declarations are resolved to `x.rs` / `x/mod.rs` (or a
//!    `#[path]` override) and walked, `impl`/`trait` blocks qualify their
//!    methods, and `#[cfg(test)]` subtrees are marked so every pass can
//!    skip them.
//!
//! This is a *surface* parser: it does not resolve types or expand
//! macros. The passes built on top (call graph, taint, panic counting)
//! are designed around that boundary — see DESIGN.md §10.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime (`'a`) — kept distinct from char literals.
    Lifetime,
    /// Integer literal (including hex/octal/binary).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f64`).
    Float,
    /// String literal (plain, raw or byte); `text` holds the *contents*.
    Str,
    /// Char literal.
    Char,
    /// Punctuation; multi-char operators (`::`, `==`, `->`, …) arrive as
    /// one token.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (string/char literals hold their contents).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment, with its starting line. Doc comments are included.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the code tokens and the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-char operators, longest first (greedy matching).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lex Rust source into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied().unwrap_or('\0');
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && next == '/' {
            let start = line;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && chars[j] != '\n' {
                text.push(chars[j]);
                j += 1;
            }
            out.comments.push(Comment { line: start, text });
            i = j;
            continue;
        }
        if c == '/' && next == '*' {
            let start = line;
            let mut depth = 1u32;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    text.push(chars[j]);
                    j += 1;
                }
            }
            out.comments.push(Comment { line: start, text });
            i = j;
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && matches!(next, '"' | '#' | 'r') {
            let mut j = i + 1;
            if c == 'b' && chars.get(j) == Some(&'r') {
                j += 1;
            }
            let raw = c == 'r' || chars.get(i + 1) == Some(&'r');
            let mut hashes = 0usize;
            while raw && chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') && (raw || c == 'b') {
                j += 1;
                let start_line = line;
                let mut text = String::new();
                while j < n {
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    if raw {
                        if chars[j] == '"' {
                            let closed = (0..hashes).all(|k| chars.get(j + 1 + k) == Some(&'#'));
                            if closed {
                                j += 1 + hashes;
                                break;
                            }
                        }
                        text.push(chars[j]);
                        j += 1;
                    } else {
                        // Byte string with escapes.
                        if chars[j] == '\\' {
                            j += 2;
                            continue;
                        }
                        if chars[j] == '"' {
                            j += 1;
                            break;
                        }
                        text.push(chars[j]);
                        j += 1;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line: start_line,
                });
                i = j;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        // Plain strings.
        if c == '"' {
            let start_line = line;
            let mut j = i + 1;
            let mut text = String::new();
            while j < n {
                if chars[j] == '\\' {
                    if let Some(&esc) = chars.get(j + 1) {
                        text.push('\\');
                        text.push(esc);
                        if esc == '\n' {
                            line += 1;
                        }
                    }
                    j += 2;
                    continue;
                }
                if chars[j] == '"' {
                    j += 1;
                    break;
                }
                if chars[j] == '\n' {
                    line += 1;
                }
                text.push(chars[j]);
                j += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text,
                line: start_line,
            });
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if next == '\\' {
                // Escaped char literal: skip to the closing quote.
                let mut j = i + 2;
                while j < n && chars[j] != '\'' && chars[j] != '\n' {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::from("\\"),
                    line,
                });
                i = j + 1;
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') {
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: next.to_string(),
                    line,
                });
                i += 3;
                continue;
            }
            // Lifetime: 'ident (no closing quote).
            let mut j = i + 1;
            let mut text = String::from("'");
            while j < n && is_ident_cont(chars[j]) {
                text.push(chars[j]);
                j += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Lifetime,
                text,
                line,
            });
            i = j;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start_line = line;
            let mut j = i;
            let mut text = String::new();
            let hex_like = c == '0' && matches!(next, 'x' | 'X' | 'o' | 'O' | 'b' | 'B');
            if hex_like {
                text.push(chars[j]);
                text.push(chars[j + 1]);
                j += 2;
                while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    text.push(chars[j]);
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Int,
                    text,
                    line: start_line,
                });
                i = j;
                continue;
            }
            let mut is_float = false;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                text.push(chars[j]);
                j += 1;
            }
            // Fractional part: a dot NOT followed by another dot (range)
            // or an identifier start (method call on an int literal).
            if j < n
                && chars[j] == '.'
                && chars
                    .get(j + 1)
                    .is_none_or(|&d| !is_ident_start(d) && d != '.')
            {
                is_float = true;
                text.push('.');
                j += 1;
                while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                    text.push(chars[j]);
                    j += 1;
                }
            }
            // Exponent.
            if j < n && matches!(chars[j], 'e' | 'E') {
                let sign = matches!(chars.get(j + 1), Some(&'+') | Some(&'-'));
                let digit_at = if sign { j + 2 } else { j + 1 };
                if chars.get(digit_at).is_some_and(|d| d.is_ascii_digit()) {
                    is_float = true;
                    text.push(chars[j]);
                    j += 1;
                    if sign {
                        text.push(chars[j]);
                        j += 1;
                    }
                    while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                        text.push(chars[j]);
                        j += 1;
                    }
                }
            }
            // Suffix (u32, f64, usize, ...).
            let suffix_start = j;
            while j < n && is_ident_cont(chars[j]) {
                text.push(chars[j]);
                j += 1;
            }
            let suffix: String = chars[suffix_start..j].iter().collect();
            if suffix == "f32" || suffix == "f64" {
                is_float = true;
            }
            out.tokens.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text,
                line: start_line,
            });
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut j = i;
            let mut text = String::new();
            while j < n && is_ident_cont(chars[j]) {
                text.push(chars[j]);
                j += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
            });
            i = j;
            continue;
        }
        // Multi-char operators, greedy.
        let mut matched = false;
        for op in OPERATORS {
            let oplen = op.len();
            if i + oplen <= n && chars[i..i + oplen].iter().collect::<String>() == **op {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                i += oplen;
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Group delimiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( ... )`
    Paren,
    /// `[ ... ]`
    Bracket,
    /// `{ ... }`
    Brace,
}

/// A token tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single non-delimiter token.
    Tok(Tok),
    /// A delimited group of trees.
    Group(Group),
}

impl Tree {
    /// The leaf token, if this is one.
    pub fn tok(&self) -> Option<&Tok> {
        match self {
            Tree::Tok(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Tok(_) => None,
        }
    }

    /// Source line of this tree's first token.
    pub fn line(&self) -> usize {
        match self {
            Tree::Tok(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }
}

/// A delimited group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Which delimiter pair.
    pub delim: Delim,
    /// Line of the opening delimiter.
    pub line: usize,
    /// Line of the closing delimiter.
    pub close_line: usize,
    /// The trees inside.
    pub trees: Vec<Tree>,
}

/// Build token trees from a flat token stream. Tolerant of unbalanced
/// delimiters (closes open groups at end of input, drops stray closers)
/// so a half-written file still parses to something scannable.
pub fn to_trees(tokens: Vec<Tok>) -> Vec<Tree> {
    // Stack of (delim, open_line, collected trees).
    let mut stack: Vec<(Delim, usize, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in tokens {
        let delim_open = match tok.text.as_str() {
            "(" => Some(Delim::Paren),
            "[" => Some(Delim::Bracket),
            "{" => Some(Delim::Brace),
            _ => None,
        };
        if tok.kind == TokKind::Punct {
            if let Some(d) = delim_open {
                stack.push((d, tok.line, Vec::new()));
                continue;
            }
            let delim_close = match tok.text.as_str() {
                ")" => Some(Delim::Paren),
                "]" => Some(Delim::Bracket),
                "}" => Some(Delim::Brace),
                _ => None,
            };
            if let Some(d) = delim_close {
                // Pop the innermost matching group; drop stray closers.
                if let Some((open_delim, open_line, trees)) = stack.pop() {
                    let group = Tree::Group(Group {
                        delim: open_delim,
                        line: open_line,
                        close_line: tok.line,
                        trees,
                    });
                    match stack.last_mut() {
                        Some((_, _, parent)) => parent.push(group),
                        None => top.push(group),
                    }
                    let _ = d;
                }
                continue;
            }
        }
        match stack.last_mut() {
            Some((_, _, trees)) => trees.push(Tree::Tok(tok)),
            None => top.push(Tree::Tok(tok)),
        }
    }
    // Close any unbalanced groups at EOF.
    while let Some((delim, open_line, trees)) = stack.pop() {
        let close_line = trees.last().map_or(open_line, Tree::line);
        let group = Tree::Group(Group {
            delim,
            line: open_line,
            close_line,
            trees,
        });
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(group),
            None => top.push(group),
        }
    }
    top
}

/// One `fn` item with its context.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Qualified name within the crate: `module::Type::name`.
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Last body line (closing brace).
    pub end_line: usize,
    /// Declared `pub` (not `pub(crate)`).
    pub is_pub: bool,
    /// Under a `#[cfg(test)]` item or module.
    pub in_test: bool,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// Trait being implemented (`impl Trait for Type`).
    pub trait_name: Option<String>,
    /// Argument-list token trees (the parenthesised parameter group).
    pub params: Vec<Tree>,
    /// Body token trees (empty for bodyless trait methods).
    pub body: Vec<Tree>,
}

/// One struct field (for type-informed heuristics like HashMap-iteration
/// and float-field comparison detection).
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Owning struct name.
    pub strukt: String,
    /// Field name.
    pub field: String,
    /// Flattened type text, e.g. `HashMap < u64 , f64 >`.
    pub ty: String,
}

/// One typed `const` or `static` item (module level, or in an `impl`
/// or `trait` body).
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// Flattened type text, e.g. `[ f64 ; 3 ]`.
    pub ty: String,
}

/// An out-of-line `mod name;` declaration.
#[derive(Debug, Clone)]
pub struct SubMod {
    /// Module name.
    pub name: String,
    /// `#[path = "..."]` override, relative to the declaring file's dir.
    pub path_override: Option<String>,
    /// Declared under `#[cfg(test)]`.
    pub in_test: bool,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Workspace-relative path.
    pub rel: String,
    /// All functions (including test-marked ones; passes filter).
    pub fns: Vec<FnItem>,
    /// All named struct fields.
    pub fields: Vec<FieldItem>,
    /// All typed `const`/`static` items outside function bodies.
    pub consts: Vec<ConstItem>,
    /// Out-of-line module declarations.
    pub submods: Vec<SubMod>,
    /// Comment stream (annotations, SAFETY notes).
    pub comments: Vec<Comment>,
}

/// Flatten trees back to space-separated token text (for type strings
/// and diagnostics).
pub fn flatten(trees: &[Tree]) -> String {
    let mut out = String::new();
    for tree in trees {
        match tree {
            Tree::Tok(t) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                match t.kind {
                    TokKind::Str => {
                        out.push('"');
                        out.push_str(&t.text);
                        out.push('"');
                    }
                    _ => out.push_str(&t.text),
                }
            }
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ("(", ")"),
                    Delim::Bracket => ("[", "]"),
                    Delim::Brace => ("{", "}"),
                };
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(open);
                let inner = flatten(&g.trees);
                if !inner.is_empty() {
                    out.push(' ');
                    out.push_str(&inner);
                    out.push(' ');
                }
                out.push_str(close);
            }
        }
    }
    out
}

/// Skip `#[cfg(feature = "strict-invariants")] <statement>` at `i`: the
/// assertion layer is compiled out of release builds. Returns the index
/// just past the gated statement (through its `;` or its block), or
/// `None` when `trees[i]` does not open such a gate.
pub fn skip_strict_gate(trees: &[Tree], i: usize) -> Option<usize> {
    if !trees.get(i)?.tok().is_some_and(|t| t.is_punct("#")) {
        return None;
    }
    let attr = trees
        .get(i + 1)?
        .group()
        .filter(|g| g.delim == Delim::Bracket)?;
    let text = flatten(&attr.trees);
    if !(text.starts_with("cfg") && text.contains("strict-invariants")) {
        return None;
    }
    let end = trees.iter().skip(i + 2).position(|t| match t {
        Tree::Tok(t) => t.is_punct(";"),
        Tree::Group(g) => g.delim == Delim::Brace,
    });
    Some(end.map_or(trees.len(), |p| i + 3 + p))
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(args)`.
    Method,
    /// `seg::name(args)`.
    Path,
    /// `name(args)` with no `.` or `::` before the name.
    Free,
    /// `name!…`.
    Macro,
}

/// One call site, as [`call_at`] classifies it.
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    /// The callee's identifier.
    pub name: &'a Tok,
    /// How the callee is named.
    pub kind: CallKind,
    /// The identifier right before the `.` or `::` of a method or path
    /// call: the receiver, or the type or module segment.
    pub qual: Option<&'a Tok>,
    /// The argument trees (empty for a macro).
    pub args: &'a [Tree],
}

/// The call site whose callee identifier is `trees[i]`: an identifier
/// followed by a parenthesised argument list, or by `!` for a macro.
pub fn call_at(trees: &[Tree], i: usize) -> Option<Call<'_>> {
    let name = trees.get(i)?.tok().filter(|t| t.kind == TokKind::Ident)?;
    let before = |k: usize| i.checked_sub(k).and_then(|j| trees.get(j)?.tok());
    let (kind, args) = match trees.get(i + 1)? {
        Tree::Group(g) if g.delim == Delim::Paren => {
            let kind = match before(1) {
                Some(p) if p.is_punct(".") => CallKind::Method,
                Some(p) if p.is_punct("::") => CallKind::Path,
                _ => CallKind::Free,
            };
            (kind, g.trees.as_slice())
        }
        Tree::Tok(t) if t.is_punct("!") => (CallKind::Macro, &[][..]),
        _ => return None,
    };
    let qual = match kind {
        CallKind::Method | CallKind::Path => before(2).filter(|t| t.kind == TokKind::Ident),
        CallKind::Free | CallKind::Macro => None,
    };
    Some(Call {
        name,
        kind,
        qual,
        args,
    })
}

impl Call<'_> {
    /// Is this a `.name(…)` method call to one of `names`?
    pub fn is_method(&self, names: &[&str]) -> bool {
        self.kind == CallKind::Method && names.contains(&self.name.text.as_str())
    }
}

/// One `let` statement, as [`visit_lets`] reads it.
#[derive(Debug, Clone, Copy)]
pub struct LetStmt<'a> {
    /// The bound name: the first identifier after `let`, skipping `mut`.
    /// `None` when the pattern opens with a group or punctuation
    /// (`let (a, b) = …`).
    pub name: Option<&'a str>,
    /// The statement from the name (or the tree that ended the name
    /// scan) up to, not including, its `;`.
    pub rest: &'a [Tree],
}

/// Visit every `let` statement in `trees` in order, descending into the
/// groups outside them. A statement runs to the next `;` at its level
/// (or the end of the level), and the groups inside it are not searched
/// for further `let`s.
pub fn visit_lets<'a>(trees: &'a [Tree], visit: &mut impl FnMut(LetStmt<'a>)) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Group(g) => visit_lets(&g.trees, visit),
            Tree::Tok(tok) if tok.is_ident("let") => {
                let mut j = i + 1;
                let mut name = None;
                while let Some(Tree::Tok(t)) = trees.get(j) {
                    if t.kind != TokKind::Ident {
                        break;
                    }
                    if !t.is_ident("mut") {
                        name = Some(t.text.as_str());
                        break;
                    }
                    j += 1;
                }
                let end = trees
                    .iter()
                    .skip(j)
                    .position(|t| t.tok().is_some_and(|t| t.is_punct(";")))
                    .map_or(trees.len(), |p| j + p);
                visit(LetStmt {
                    name,
                    rest: trees.get(j..end).unwrap_or_default(),
                });
                i = end;
            }
            Tree::Tok(_) => {}
        }
        i += 1;
    }
}

/// Does an attribute group's payload mark a `#[cfg(test)]` item?
fn attr_is_cfg_test(attr: &Group) -> bool {
    let text = flatten(&attr.trees);
    text.starts_with("cfg") && text.contains("test") && !text.contains("feature")
}

/// Extract a `#[path = "..."]` override from an attribute payload.
fn attr_path_override(attr: &Group) -> Option<String> {
    let mut it = attr.trees.iter();
    let first = it.next()?.tok()?;
    if !first.is_ident("path") {
        return None;
    }
    let eq = it.next()?.tok()?;
    if !eq.is_punct("=") {
        return None;
    }
    let lit = it.next()?.tok()?;
    (lit.kind == TokKind::Str).then(|| lit.text.clone())
}

/// Walk-state for item extraction.
struct ItemCtx<'a> {
    rel: &'a str,
    module: Vec<String>,
    impl_type: Option<String>,
    trait_name: Option<String>,
    in_test: bool,
}

/// Extract items from a tree slice into `out`.
pub fn extract_items(trees: &[Tree], rel: &str, out: &mut FileAst) {
    let mut ctx = ItemCtx {
        rel,
        module: Vec::new(),
        impl_type: None,
        trait_name: None,
        in_test: false,
    };
    walk_items(trees, &mut ctx, out);
}

/// Rust keywords that terminate a type/path scan.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "fn" | "pub"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "use"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "where"
            | "for"
            | "type"
            | "let"
            | "async"
            | "dyn"
    )
}

fn walk_items(trees: &[Tree], ctx: &mut ItemCtx<'_>, out: &mut FileAst) {
    let mut i = 0usize;
    let mut pending_test = false;
    let mut pending_path: Option<String> = None;
    let mut pending_pub = false;
    let mut pending_pub_restricted = false;
    while i < trees.len() {
        let tree = &trees[i];
        let tok = match tree {
            Tree::Tok(t) => t,
            Tree::Group(_) => {
                i += 1;
                continue;
            }
        };
        match tok.text.as_str() {
            "#" => {
                // Attribute: `#[...]` (or inner `#![...]`).
                let mut j = i + 1;
                if trees
                    .get(j)
                    .and_then(Tree::tok)
                    .is_some_and(|t| t.is_punct("!"))
                {
                    j += 1;
                }
                if let Some(Tree::Group(attr)) = trees.get(j) {
                    if attr.delim == Delim::Bracket {
                        if attr_is_cfg_test(attr) {
                            pending_test = true;
                        }
                        if let Some(p) = attr_path_override(attr) {
                            pending_path = Some(p);
                        }
                        i = j + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "pub" => {
                pending_pub = true;
                pending_pub_restricted = false;
                if let Some(Tree::Group(g)) = trees.get(i + 1) {
                    if g.delim == Delim::Paren {
                        pending_pub_restricted = true;
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            "mod" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::tok)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                match trees.get(i + 2) {
                    Some(Tree::Group(g)) if g.delim == Delim::Brace => {
                        // Inline module: recurse with the path pushed.
                        let was_test = ctx.in_test;
                        ctx.in_test = ctx.in_test || pending_test;
                        ctx.module.push(name);
                        walk_items(&g.trees, ctx, out);
                        ctx.module.pop();
                        ctx.in_test = was_test;
                        i += 3;
                    }
                    _ => {
                        out.submods.push(SubMod {
                            name,
                            path_override: pending_path.take(),
                            in_test: ctx.in_test || pending_test,
                        });
                        i += 3; // mod name ;
                    }
                }
                pending_test = false;
                pending_pub = false;
                pending_path = None;
            }
            "impl" => {
                // Parse `impl<G> Type {` or `impl<G> Trait for Type {`.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut segs_a: Vec<String> = Vec::new(); // before `for`
                let mut segs_b: Vec<String> = Vec::new(); // after `for`
                let mut saw_for = false;
                let mut body: Option<&Group> = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == Delim::Brace && angle == 0 => {
                            body = Some(g);
                            break;
                        }
                        Tree::Group(_) => {}
                        Tree::Tok(t) => match t.text.as_str() {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "<<" => angle += 2,
                            ">>" => angle -= 2,
                            "for" if angle == 0 => saw_for = true,
                            "where" if angle == 0 => {}
                            _ if t.kind == TokKind::Ident && angle == 0 && !is_keyword(&t.text) => {
                                if saw_for {
                                    segs_b.push(t.text.clone());
                                } else {
                                    segs_a.push(t.text.clone());
                                }
                            }
                            _ => {}
                        },
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    let (trait_name, type_name) = if saw_for {
                        (segs_a.last().cloned(), segs_b.first().cloned())
                    } else {
                        (None, segs_a.first().cloned())
                    };
                    let was_impl = ctx.impl_type.take();
                    let was_trait = ctx.trait_name.take();
                    let was_test = ctx.in_test;
                    ctx.impl_type = type_name;
                    ctx.trait_name = trait_name;
                    ctx.in_test = ctx.in_test || pending_test;
                    walk_items(&body.trees, ctx, out);
                    ctx.impl_type = was_impl;
                    ctx.trait_name = was_trait;
                    ctx.in_test = was_test;
                }
                pending_test = false;
                pending_pub = false;
                i = j + 1;
            }
            "trait" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::tok)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                // Find the brace body (skipping supertrait bounds).
                let mut j = i + 2;
                let mut body: Option<&Group> = None;
                while j < trees.len() {
                    if let Tree::Group(g) = &trees[j] {
                        if g.delim == Delim::Brace {
                            body = Some(g);
                            break;
                        }
                    }
                    if trees[j].tok().is_some_and(|t| t.is_punct(";")) {
                        break;
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    let was_impl = ctx.impl_type.take();
                    let was_trait = ctx.trait_name.take();
                    let was_test = ctx.in_test;
                    ctx.impl_type = Some(name.clone());
                    ctx.trait_name = Some(name);
                    ctx.in_test = ctx.in_test || pending_test;
                    walk_items(&body.trees, ctx, out);
                    ctx.impl_type = was_impl;
                    ctx.trait_name = was_trait;
                    ctx.in_test = was_test;
                }
                pending_test = false;
                pending_pub = false;
                i = j + 1;
            }
            "struct" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::tok)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                // Named-field structs: the first brace group before `;`.
                let mut j = i + 2;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == Delim::Brace => {
                            extract_fields(&name, &g.trees, out);
                            break;
                        }
                        Tree::Tok(t) if t.is_punct(";") => break,
                        _ => j += 1,
                    }
                }
                pending_test = false;
                pending_pub = false;
                i = j + 1;
            }
            "fn" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::tok)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                // Params: first paren group (after any generics), then
                // body: first brace group before `;` at this level.
                let mut j = i + 2;
                let mut params: Option<&Group> = None;
                let mut body: Option<&Group> = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == Delim::Paren && params.is_none() => {
                            params = Some(g);
                            j += 1;
                        }
                        Tree::Group(g) if g.delim == Delim::Brace => {
                            body = Some(g);
                            break;
                        }
                        Tree::Tok(t) if t.is_punct(";") => break,
                        _ => j += 1,
                    }
                }
                let mut qual = ctx.module.clone();
                if let Some(t) = &ctx.impl_type {
                    qual.push(t.clone());
                }
                qual.push(name.clone());
                out.fns.push(FnItem {
                    name,
                    qual: qual.join("::"),
                    file: ctx.rel.to_string(),
                    line: tok.line,
                    end_line: body.map_or(tok.line, |b| b.close_line),
                    is_pub: pending_pub && !pending_pub_restricted,
                    in_test: ctx.in_test || pending_test,
                    impl_type: ctx.impl_type.clone(),
                    trait_name: ctx.trait_name.clone(),
                    params: params.map(|p| p.trees.clone()).unwrap_or_default(),
                    body: body.map(|b| b.trees.clone()).unwrap_or_default(),
                });
                pending_test = false;
                pending_pub = false;
                i = j + 1;
            }
            _ => {
                // `use`, `const`, `static`, `type`, `extern`, expression
                // statements, … — no item state to track; a typed
                // `const`/`static` is recorded for type-informed passes.
                if let Some(item) = const_item(trees, i) {
                    out.consts.push(item);
                }
                if !matches!(tok.text.as_str(), "unsafe" | "async" | "const" | "extern") {
                    pending_pub = false;
                    pending_test = pending_test
                        && matches!(tok.text.as_str(), "unsafe" | "async" | "const" | "extern");
                }
                i += 1;
            }
        }
    }
}

/// The `const NAME: Type` or `static [mut] NAME: Type` item whose
/// keyword is `trees[i]`, typed up to its `=` or `;`; `None` for any
/// other use of the keyword (`const fn`, `*const T`).
fn const_item(trees: &[Tree], i: usize) -> Option<ConstItem> {
    let (kw, rest) = trees.get(i..)?.split_first()?;
    if !kw.tok()?.is_ident("const") && !kw.tok()?.is_ident("static") {
        return None;
    }
    let rest = match rest.split_first() {
        Some((m, after)) if m.tok().is_some_and(|t| t.is_ident("mut")) => after,
        _ => rest,
    };
    let (name, rest) = rest.split_first()?;
    let (colon, rest) = rest.split_first()?;
    let name = name.tok().filter(|t| t.kind == TokKind::Ident)?;
    if !colon.tok()?.is_punct(":") {
        return None;
    }
    let ty = rest
        .split(|t| t.tok().is_some_and(|t| t.is_punct("=") || t.is_punct(";")))
        .next()?;
    Some(ConstItem {
        name: name.text.clone(),
        ty: flatten(ty),
    })
}

/// Extract named fields from a struct body: `vis name : Type ,`.
fn extract_fields(strukt: &str, trees: &[Tree], out: &mut FileAst) {
    // Split on top-level commas; each chunk is `attrs vis name : type`.
    let mut chunk: Vec<&Tree> = Vec::new();
    let mut chunks: Vec<Vec<&Tree>> = Vec::new();
    for tree in trees {
        if tree.tok().is_some_and(|t| t.is_punct(",")) {
            chunks.push(std::mem::take(&mut chunk));
        } else {
            chunk.push(tree);
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    for chunk in chunks {
        // Find `name :` where name is the last ident before the first
        // top-level colon.
        let colon = chunk
            .iter()
            .position(|t| t.tok().is_some_and(|t| t.is_punct(":")));
        let Some(colon) = colon else { continue };
        let name = chunk[..colon]
            .iter()
            .rev()
            .find_map(|t| t.tok())
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        let Some(name) = name else { continue };
        let ty: Vec<Tree> = chunk[colon + 1..].iter().map(|&t| t.clone()).collect();
        out.fields.push(FieldItem {
            strukt: strukt.to_string(),
            field: name,
            ty: flatten(&ty),
        });
    }
}

/// Parse one file into a [`FileAst`].
pub fn parse_file(rel: &str, src: &str) -> FileAst {
    let lexed = lex(src);
    let trees = to_trees(lexed.tokens);
    let mut out = FileAst {
        rel: rel.to_string(),
        comments: lexed.comments,
        ..FileAst::default()
    };
    extract_items(&trees, rel, &mut out);
    out
}

/// A parsed crate: every file reachable from its entry points through
/// the module tree.
#[derive(Debug, Default)]
pub struct CrateAst {
    /// Ratchet unit, `crates/<name>` or `src`.
    pub unit: String,
    /// Parsed files in walk order.
    pub files: Vec<FileAst>,
    /// Files under `src/` that no `mod` declaration reaches (orphans).
    pub orphans: Vec<String>,
}

/// Parse a crate rooted at `src_dir` (its `src/` directory), reachable
/// from every entry point (`lib.rs`, `main.rs`, `bin/*.rs`). `root` is
/// the workspace root used to make paths relative; `unit` names the
/// crate in diagnostics and the ratchet.
pub fn parse_crate(root: &Path, src_dir: &Path, unit: &str) -> Result<CrateAst, String> {
    let mut ast = CrateAst {
        unit: unit.to_string(),
        ..CrateAst::default()
    };
    let mut visited: Vec<PathBuf> = Vec::new();
    let mut entries: Vec<PathBuf> = Vec::new();
    for name in ["lib.rs", "main.rs"] {
        let p = src_dir.join(name);
        if p.is_file() {
            entries.push(p);
        }
    }
    let bin_dir = src_dir.join("bin");
    if bin_dir.is_dir() {
        let mut bins: Vec<PathBuf> = fs::read_dir(&bin_dir)
            .map_err(|e| format!("read {}: {e}", bin_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        bins.sort();
        entries.extend(bins);
    }
    for entry in entries {
        walk_module_file(root, &entry, &mut visited, &mut ast)?;
    }
    // Orphans: .rs files under src/ the module tree never reached.
    let mut all: Vec<PathBuf> = Vec::new();
    collect_rs_files(src_dir, &mut all)?;
    for file in all {
        if !visited.contains(&file) {
            ast.orphans.push(rel_of(root, &file));
        }
    }
    ast.orphans.sort();
    Ok(ast)
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collect `.rs` files under `dir`, sorted.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse `file` and recurse into its out-of-line modules.
fn walk_module_file(
    root: &Path,
    file: &Path,
    visited: &mut Vec<PathBuf>,
    ast: &mut CrateAst,
) -> Result<(), String> {
    if visited.contains(&file.to_path_buf()) {
        return Ok(());
    }
    visited.push(file.to_path_buf());
    let src = fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let rel = rel_of(root, file);
    let parsed = parse_file(&rel, &src);
    // Resolve out-of-line modules relative to this file's module dir:
    // `src/lib.rs` / `src/main.rs` / `src/foo/mod.rs` resolve in their own
    // directory; `src/foo.rs` resolves in `src/foo/`.
    let dir = file.parent().unwrap_or(Path::new("."));
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let mod_dir = if matches!(stem, "lib" | "main" | "mod") || dir.ends_with("bin") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    let submods = parsed.submods.clone();
    ast.files.push(parsed);
    for sm in submods {
        if sm.in_test {
            continue;
        }
        let candidates = match &sm.path_override {
            Some(p) => vec![dir.join(p)],
            None => vec![
                mod_dir.join(format!("{}.rs", sm.name)),
                mod_dir.join(&sm.name).join("mod.rs"),
            ],
        };
        let Some(target) = candidates.into_iter().find(|p| p.is_file()) else {
            // Unresolvable module (cfg-gated platform file, generated
            // code): skip rather than hard-error; orphan detection will
            // surface anything truly unreached.
            continue;
        };
        walk_module_file(root, &target, visited, ast)?;
    }
    Ok(())
}

impl fmt::Display for TokKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokKind::Ident => "ident",
            TokKind::Lifetime => "lifetime",
            TokKind::Int => "int",
            TokKind::Float => "float",
            TokKind::Str => "str",
            TokKind::Char => "char",
            TokKind::Punct => "punct",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_literals_and_operators() {
        let l = lex(r#"let x = 1.5e-3; let s = "a.unwrap()"; let r = 0..n; m /= 2;"#);
        let kinds: Vec<(TokKind, &str)> =
            l.tokens.iter().map(|t| (t.kind, t.text.as_str())).collect();
        assert!(kinds.contains(&(TokKind::Float, "1.5e-3")));
        assert!(kinds.contains(&(TokKind::Str, "a.unwrap()")));
        assert!(kinds.contains(&(TokKind::Punct, "..")));
        assert!(kinds.contains(&(TokKind::Punct, "/=")));
        assert!(kinds.contains(&(TokKind::Int, "0")));
    }

    #[test]
    fn lexes_raw_strings_and_lifetimes() {
        let l = lex(r##"fn f<'a>(x: &'a str) -> &'a str { r#"panic!()"# }"##);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "panic!()"));
        // The panic! inside the raw string must NOT be an ident.
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn comments_are_side_channel() {
        let l = lex("// mtm-allow: wall-clock -- why\nfn f() {} /* block */");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("mtm-allow: wall-clock"));
        assert_eq!(l.comments[0].line, 1);
    }

    #[test]
    fn trees_nest_and_record_lines() {
        let l = lex("fn f() {\n  g(x[0]);\n}");
        let trees = to_trees(l.tokens);
        // fn f () { ... }
        let body = trees
            .iter()
            .filter_map(Tree::group)
            .find(|g| g.delim == Delim::Brace)
            .expect("body group");
        assert_eq!(body.line, 1);
        assert_eq!(body.close_line, 3);
    }

    #[test]
    fn int_method_call_is_not_float() {
        let l = lex("let x = 3.max(y); let f = 3.0.max(y);");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Int && t.text == "3"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Float && t.text == "3.0"));
    }

    #[test]
    fn extracts_fns_with_impl_and_mod_context() {
        let src = r#"
mod inner {
    pub struct S { pub map: HashMap<u64, f64> }
    impl S {
        pub fn get(&self) -> u64 { 1 }
    }
    impl Measure for S {
        fn measure(&mut self) -> f64 { 0.0 }
    }
}
pub fn free() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
"#;
        let ast = parse_file("x.rs", src);
        let names: Vec<&str> = ast.fns.iter().map(|f| f.qual.as_str()).collect();
        assert!(names.contains(&"inner::S::get"));
        assert!(names.contains(&"inner::S::measure"));
        assert!(names.contains(&"free"));
        let measure = ast.fns.iter().find(|f| f.name == "measure").unwrap();
        assert_eq!(measure.trait_name.as_deref(), Some("Measure"));
        let helper = ast.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        let field = ast.fields.iter().find(|f| f.field == "map").unwrap();
        assert!(field.ty.contains("HashMap"));
        assert_eq!(field.strukt, "S");
    }

    #[test]
    fn cfg_test_fn_attribute_is_detected() {
        let src = "#[cfg(test)]\nfn only_in_tests() { x.unwrap(); }\nfn real() {}";
        let ast = parse_file("x.rs", src);
        assert!(
            ast.fns
                .iter()
                .find(|f| f.name == "only_in_tests")
                .unwrap()
                .in_test
        );
        assert!(!ast.fns.iter().find(|f| f.name == "real").unwrap().in_test);
    }

    #[test]
    fn visit_lets_reads_names_and_statement_spans() {
        let src = "fn f() { let mut a: f64 = 1.0; let (b, c) = g(); \
                   if x { let d = { let e = 2; e }; } let f }";
        let trees = to_trees(lex(src).tokens);
        let mut seen = Vec::new();
        visit_lets(&trees, &mut |stmt| {
            seen.push((stmt.name, flatten(stmt.rest)));
        });
        assert_eq!(
            seen,
            [
                (Some("a"), "a : f64 = 1.0".to_string()),
                (None, "( b , c ) = g ()".to_string()),
                // `e` sits in a group inside `d`'s statement: not visited.
                (Some("d"), "d = { let e = 2 ; e }".to_string()),
                // No `;` before the level ends.
                (Some("f"), "f".to_string()),
            ]
        );
    }

    #[test]
    fn submods_and_path_overrides() {
        let src = "mod plain;\n#[path = \"other/file.rs\"]\nmod renamed;\n#[cfg(test)]\nmod t;";
        let ast = parse_file("x.rs", src);
        assert_eq!(ast.submods.len(), 3);
        assert_eq!(ast.submods[0].name, "plain");
        assert_eq!(
            ast.submods[1].path_override.as_deref(),
            Some("other/file.rs")
        );
        assert!(ast.submods[2].in_test);
    }
}
