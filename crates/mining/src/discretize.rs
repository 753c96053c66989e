//! Nominal→binomial discretization (§2.2, Table 2).
//!
//! Apriori and FP-Growth operate on boolean items, so every nominal
//! attribute must be discretized: each distinct `(attribute, value)` pair
//! becomes one boolean item (`attr=value`).  The paper highlights this
//! "boolean discretization problem" as a driver of the attribute blow-up —
//! Table 2's `Binominal` row — and we reproduce the exact conversion here.

use crate::Transactions;
use encore_model::Row;

/// Convert assembled rows into a boolean transaction database.
///
/// Each row becomes one transaction, in row order, whose items are the
/// `attr=value` strings of its present cells; the database's item count is
/// the binomial attribute count (the number of distinct items).
pub fn discretize(rows: &[&Row]) -> Transactions {
    let mut tx = Transactions::new();
    for row in rows {
        let items: Vec<String> = row
            .iter()
            .filter(|(_, v)| !v.is_absent())
            .map(|(a, v)| format!("{a}={}", v.render()))
            .collect();
        tx.push(items.iter().map(String::as_str));
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::{AttrName, ConfigValue};

    fn rows() -> Vec<Row> {
        [
            ("a", "mysql", 3306.0),
            ("b", "mysql", 3307.0),
            ("c", "root", 3306.0),
        ]
        .into_iter()
        .map(|(id, user, port)| {
            let mut r = Row::new(id);
            r.set(AttrName::entry("user"), ConfigValue::str(user));
            r.set(AttrName::entry("port"), ConfigValue::number(port));
            r
        })
        .collect()
    }

    #[test]
    fn binomial_count_is_distinct_attr_value_pairs() {
        let rows = rows();
        let tx = discretize(&rows.iter().collect::<Vec<_>>());
        // user ∈ {mysql, root} + port ∈ {3306, 3307} = 4 binomial items
        assert_eq!(tx.num_items(), 4);
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn binomial_count_at_least_nominal_count() {
        let rows = rows();
        let rows: Vec<&Row> = rows.iter().collect();
        let nominal = encore_model::ColumnStore::from_rows(&rows).num_columns();
        assert!(discretize(&rows).num_items() >= nominal);
    }

    #[test]
    fn absent_cells_skipped() {
        let mut r = Row::new("x");
        r.set(AttrName::entry("a"), ConfigValue::Absent);
        r.set(AttrName::entry("b"), ConfigValue::str("v"));
        let tx = discretize(&[&r]);
        assert_eq!(tx.num_items(), 1);
    }
}
