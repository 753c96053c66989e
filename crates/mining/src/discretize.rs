//! Nominal→binomial discretization (§2.2, Table 2).
//!
//! Apriori and FP-Growth operate on boolean items, so every nominal
//! attribute must be discretized: each distinct `(attribute, value)` pair
//! becomes one boolean item (`attr=value`).  The paper highlights this
//! "boolean discretization problem" as a driver of the attribute blow-up —
//! Table 2's `Binominal` row — and we reproduce the exact conversion here.

use crate::Transactions;
use encore_model::ColumnStore;

/// Convert a training set's column table into a boolean transaction
/// database.
///
/// Each row becomes one transaction, in row order, whose items are the
/// `attr=value` strings of its present cells in attribute order (the
/// rendered value, as [`encore_model::ConfigValue::render`] spells it);
/// the database's item count is the binomial attribute count (the number
/// of distinct items).
pub fn discretize(store: &ColumnStore) -> Transactions {
    let interner = store.interner();
    let mut tx = Transactions::new();
    for row in 0..store.num_rows() {
        let items: Vec<String> = interner
            .attrs()
            .iter()
            .enumerate()
            .filter_map(|(i, attr)| {
                let id = store.column(i).value_id(row)?;
                Some(format!("{attr}={}", interner.render_of(id)))
            })
            .collect();
        tx.push(items.iter().map(String::as_str));
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::{AttrName, ConfigValue, Row};

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

    fn store(rows: &[Row]) -> ColumnStore {
        ColumnStore::from_rows(&rows.iter().collect::<Vec<_>>())
    }

    #[test]
    fn binomial_count_is_distinct_attr_value_pairs() {
        let tx = discretize(&store(&rows()));
        // user ∈ {mysql, root} + port ∈ {3306, 3307} = 4 binomial items
        assert_eq!(tx.num_items(), 4);
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn items_intern_in_row_then_attribute_order() {
        let tx = discretize(&store(&rows()));
        let names: Vec<&str> = (0..tx.num_items() as u32).map(|id| tx.name(id)).collect();
        assert_eq!(
            names,
            ["port=3306", "user=mysql", "port=3307", "user=root"],
            "numbers spelled as rendered"
        );
    }

    #[test]
    fn binomial_count_at_least_nominal_count() {
        let store = store(&rows());
        assert!(discretize(&store).num_items() >= store.num_columns());
    }

    #[test]
    fn absent_cells_skipped() {
        let mut r = Row::new("x");
        r.set(AttrName::entry("a"), ConfigValue::Absent);
        r.set(AttrName::entry("b"), ConfigValue::str("v"));
        let tx = discretize(&ColumnStore::from_rows(&[&r]));
        assert_eq!(tx.num_items(), 1);
        assert_eq!(tx.len(), 1);
    }
}
