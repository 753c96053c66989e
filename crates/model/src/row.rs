//! One row of the systems × attributes table consumed by rule inference.
//!
//! A [`Row`] is one configured system's cells, sorted by attribute, with
//! one cell per [`AttrName`].  The table is sparse: an attribute absent
//! from a system is simply missing from its row (the paper skips rules
//! whose entries are absent, §6).  Detection checks a target's row, and
//! tests build training rows to pivot with [`crate::ColumnStore`]; a
//! training image itself is encoded straight from assembly's cell stream
//! and never becomes a row.

use crate::attr::AttrName;
use crate::value::ConfigValue;

/// One configured system: an id plus its attribute values.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Row {
    id: String,
    /// Sorted by attribute, one cell per attribute.
    cells: Vec<(AttrName, ConfigValue)>,
}

/// Sort `cells` by key and keep each key's last cell: what setting them
/// one by one into a map leaves, with one stable sort and one pass.
pub fn sort_keep_last<K: Ord, V>(cells: &mut Vec<(K, V)>) {
    cells.sort_by(|x, y| x.0.cmp(&y.0));
    // `dedup_by` drops the later of two equal neighbours, so move its
    // value into the one it keeps first.
    cells.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(&mut later.1, &mut kept.1);
        }
        same
    });
}

impl Row {
    /// Create an empty row for the system with the given id.
    pub fn new(id: impl Into<String>) -> Row {
        Row {
            id: id.into(),
            cells: Vec::new(),
        }
    }

    /// The row that [`Row::set`] of each cell in turn builds, from cells in
    /// the order they were set: a later cell for an attribute replaces an
    /// earlier one.
    pub fn from_cells(id: impl Into<String>, mut cells: Vec<(AttrName, ConfigValue)>) -> Row {
        sort_keep_last(&mut cells);
        Row {
            id: id.into(),
            cells,
        }
    }

    /// The row of `cells` already in attribute order, one cell per
    /// attribute, as a caller that ordered them some cheaper way than
    /// comparing names holds them.
    pub fn from_sorted_cells(id: impl Into<String>, cells: Vec<(AttrName, ConfigValue)>) -> Row {
        debug_assert!(cells.windows(2).all(|pair| pair[0].0 < pair[1].0));
        Row {
            id: id.into(),
            cells,
        }
    }

    /// The system identifier (e.g. an image name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Set an attribute value, returning the previous value if any.
    pub fn set(&mut self, attr: AttrName, value: ConfigValue) -> Option<ConfigValue> {
        match self.position(&attr) {
            Ok(i) => Some(std::mem::replace(&mut self.cells[i].1, value)),
            Err(i) => {
                self.cells.insert(i, (attr, value));
                None
            }
        }
    }

    /// Look up an attribute value.
    pub fn get(&self, attr: &AttrName) -> Option<&ConfigValue> {
        self.position(attr).ok().map(|i| &self.cells[i].1)
    }

    /// Whether the row has a (present) value for `attr`.
    pub fn has(&self, attr: &AttrName) -> bool {
        self.get(attr).is_some_and(|v| !v.is_absent())
    }

    /// Iterate over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &ConfigValue)> {
        self.cells.iter().map(|(attr, value)| (attr, value))
    }

    /// Number of attributes set in this row.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the row has no attributes.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn position(&self, attr: &AttrName) -> Result<usize, usize> {
        self.cells.binary_search_by(|(a, _)| a.cmp(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_values_do_not_count_as_present() {
        let mut r = Row::new("s");
        r.set(AttrName::entry("x"), ConfigValue::Absent);
        assert!(!r.has(&AttrName::entry("x")));
        assert_eq!(r.get(&AttrName::entry("x")), Some(&ConfigValue::Absent));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn set_replaces_and_keeps_attribute_order() {
        let mut r = Row::new("s");
        assert_eq!(r.set(AttrName::entry("b"), ConfigValue::str("1")), None);
        assert_eq!(r.set(AttrName::entry("a"), ConfigValue::str("2")), None);
        assert_eq!(
            r.set(AttrName::entry("b"), ConfigValue::str("3")),
            Some(ConfigValue::str("1"))
        );
        let cells: Vec<(String, String)> =
            r.iter().map(|(a, v)| (a.to_string(), v.render())).collect();
        assert_eq!(cells, [("a".into(), "2".into()), ("b".into(), "3".into())]);
        assert_eq!(r.get(&AttrName::entry("c")), None);
    }
}
