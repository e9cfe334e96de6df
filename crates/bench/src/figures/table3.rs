//! Table III — operator counts of topologies in the literature.

use mtm_topogen::literature::{max_surveyed_operators, ENTERPRISE_UPPER_BOUND, LITERATURE};

/// Render Table III.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("# Table III: number of operators of topologies in literature\n");
    out.push_str(&format!(
        "{:<6} {:<58} {}\n",
        "Year", "Description", "# of Ops"
    ));
    for row in LITERATURE {
        out.push_str(&format!(
            "{:<6} {:<58} {}\n",
            row.year, row.description, row.operators
        ));
    }
    out.push_str(&format!(
        "\nmax surveyed: {}; enterprise upper bound: {} — hence benchmark sizes 10/50/100\n",
        max_surveyed_operators(),
        ENTERPRISE_UPPER_BOUND
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_four_rows_plus_note() {
        let t = super::run();
        assert!(t.matches("20").count() >= 4);
        assert!(t.contains("Linear Road"));
        assert!(t.contains("10/50/100"));
    }
}
