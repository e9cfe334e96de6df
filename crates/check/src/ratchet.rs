//! The panic-path ratchet.
//!
//! `check/ratchet.toml` records per-crate budgets for the sites the AST
//! pass ([`crate::analyze`]) counts, in six tables:
//!
//! * `[panic_sites]` — `.unwrap()` / `.expect(` / `panic!` outside tests
//! * `[index_sites]` — postfix indexing (`xs[i]`), which panics out of
//!   bounds
//! * `[div_sites]` — integer `/`/`%` with a non-constant divisor, which
//!   panics on zero
//! * `[alloc_hot]` — allocation/lock/IO sites reachable from `mtm-hot`
//!   roots and not sanctioned by an `mtm-allow: alloc` annotation
//!   ([`crate::hotpath`]); units absent from the table are held at zero
//! * `[blocking_under_lock]` — IO/join/sleep/hot-work sites reachable
//!   while a lock guard is held, minus `mtm-allow: lock` sanctioned ones
//!   ([`crate::lockregion`]); absent units are held at zero
//! * `[lock_order]` — acquired-while-holding edges that participate in a
//!   lock-order cycle, double-lock self-cycles included
//!   ([`crate::lockregion`])
//!
//! `mtm-check analyze` fails when any count *rises* above its recorded
//! value; falling counts are reported as tightenable, and the file is
//! lowered by hand, with a comment, so its reviewed justifications stay.
//! The file is parsed with a purpose-built reader (the workspace has no
//! TOML dependency): `[table]` headers over `"unit" = count` entries.

use std::collections::BTreeMap;

/// The table names, in file order.
pub const TABLES: &[&str] = &[
    "panic_sites",
    "index_sites",
    "div_sites",
    "alloc_hot",
    "blocking_under_lock",
    "lock_order",
];

/// Per-unit site counts produced by the analyzer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// `.unwrap()` / `.expect(` / `panic!` sites.
    pub panic_sites: usize,
    /// Postfix indexing sites.
    pub index_sites: usize,
    /// Unguarded integer division/remainder sites.
    pub div_sites: usize,
    /// Allocation/lock/IO sites reachable from `mtm-hot` roots and not
    /// covered by an `alloc` allow (see [`crate::hotpath`]).
    pub alloc_hot: usize,
    /// Blocking (IO/join/sleep/hot-work) sites inside a held lock region
    /// and not covered by a `lock` allow (see [`crate::lockregion`]).
    pub blocking_under_lock: usize,
    /// Acquired-while-holding edges participating in a lock-order cycle
    /// (see [`crate::lockregion`]).
    pub lock_order: usize,
}

impl SiteCounts {
    /// All counts are zero.
    pub fn is_zero(&self) -> bool {
        self.panic_sites == 0
            && self.index_sites == 0
            && self.div_sites == 0
            && self.alloc_hot == 0
            && self.blocking_under_lock == 0
            && self.lock_order == 0
    }

    /// The count for a named table.
    pub fn get(&self, table: &str) -> usize {
        match table {
            "panic_sites" => self.panic_sites,
            "index_sites" => self.index_sites,
            "div_sites" => self.div_sites,
            "alloc_hot" => self.alloc_hot,
            "blocking_under_lock" => self.blocking_under_lock,
            "lock_order" => self.lock_order,
            _ => 0,
        }
    }
}

/// Parsed ratchet state: per-table, per-unit ceilings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Table name → (unit → maximum allowed sites).
    pub tables: BTreeMap<String, BTreeMap<String, usize>>,
}

impl Ratchet {
    /// Parse the `check/ratchet.toml` format: `[table]` headers over
    /// `"unit" = count` entries. Comments and blank lines are ignored;
    /// unknown tables are preserved (forward compatibility).
    pub fn parse(text: &str) -> Result<Ratchet, String> {
        let mut tables: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().to_string();
                tables.entry(name.clone()).or_default();
                current = Some(name);
                continue;
            }
            let Some(table) = &current else {
                return Err(format!(
                    "ratchet.toml:{}: entry before any [table] header",
                    lineno + 1
                ));
            };
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("ratchet.toml:{}: expected `key = count`", lineno + 1))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("ratchet.toml:{}: bad count: {e}", lineno + 1))?;
            tables.entry(table.clone()).or_default().insert(key, value);
        }
        Ok(Ratchet { tables })
    }

    /// Compare current counts against the recorded ceilings. Returns
    /// `(failures, tightenable)`: table entries whose count rose
    /// (including units absent from the file), and entries whose count
    /// fell.
    pub fn compare(&self, current: &BTreeMap<String, SiteCounts>) -> (Vec<String>, Vec<String>) {
        let mut failures = Vec::new();
        let mut tighten = Vec::new();
        static EMPTY: BTreeMap<String, usize> = BTreeMap::new();
        for table in TABLES {
            let recorded = self.tables.get(*table).unwrap_or(&EMPTY);
            for (unit, counts) in current {
                let count = counts.get(table);
                if count == 0 {
                    continue;
                }
                match recorded.get(unit) {
                    Some(&ceiling) if count > ceiling => failures.push(format!(
                        "[{table}] {unit}: {count} sites, ratchet allows {ceiling}"
                    )),
                    Some(&ceiling) if count < ceiling => tighten.push(format!(
                        "[{table}] {unit}: {count} sites, ratchet still at {ceiling}"
                    )),
                    Some(_) => {}
                    None => failures.push(format!(
                        "[{table}] {unit}: {count} sites, not present in check/ratchet.toml"
                    )),
                }
            }
            for (unit, &ceiling) in recorded {
                let count = current.get(unit).map_or(0, |c| c.get(table));
                if count == 0 && ceiling > 0 {
                    tighten.push(format!(
                        "[{table}] {unit}: 0 sites, ratchet still at {ceiling}"
                    ));
                }
            }
        }
        (failures, tighten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize, usize, usize)]) -> BTreeMap<String, SiteCounts> {
        pairs
            .iter()
            .map(|&(k, p, x, d)| {
                (
                    k.to_string(),
                    SiteCounts {
                        panic_sites: p,
                        index_sites: x,
                        div_sites: d,
                        ..SiteCounts::default()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn increase_is_a_failure_per_table() {
        let recorded = Ratchet::parse("[panic_sites]\n\"crates/gp\" = 2\n").expect("parse");
        let (failures, _) = recorded.compare(&counts(&[("crates/gp", 3, 0, 0)]));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allows 2"), "{failures:?}");
        assert!(failures[0].contains("[panic_sites]"), "{failures:?}");
    }

    #[test]
    fn unknown_unit_is_a_failure() {
        let ratchet = Ratchet::default();
        let (failures, _) = ratchet.compare(&counts(&[("crates/new", 1, 0, 0)]));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("not present"), "{failures:?}");
    }

    #[test]
    fn decrease_only_suggests_tightening() {
        let recorded = Ratchet::parse("[index_sites]\n\"crates/gp\" = 5\n").expect("parse");
        let (failures, tighten) = recorded.compare(&counts(&[("crates/gp", 0, 3, 0)]));
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(tighten.len(), 1, "{tighten:?}");
    }

    #[test]
    fn vanished_unit_suggests_tightening() {
        let recorded = Ratchet::parse("[panic_sites]\n\"crates/old\" = 4\n").expect("parse");
        let (failures, tighten) = recorded.compare(&counts(&[]));
        assert!(failures.is_empty());
        assert_eq!(tighten.len(), 1);
    }

    #[test]
    fn equal_counts_pass_silently() {
        let recorded =
            Ratchet::parse("[panic_sites]\n\"crates/gp\" = 5\n[index_sites]\n\"crates/gp\" = 2\n")
                .expect("parse");
        let (failures, tighten) = recorded.compare(&counts(&[("crates/gp", 5, 2, 0)]));
        assert!(failures.is_empty() && tighten.is_empty());
    }

    #[test]
    fn entry_before_table_is_an_error() {
        assert!(Ratchet::parse("\"crates/gp\" = 1\n").is_err());
    }
}
