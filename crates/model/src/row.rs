//! One row of the systems × attributes table consumed by rule inference.
//!
//! The assembler stores one [`Row`] per configured system; columns are
//! [`AttrName`]s.  The table is sparse: an attribute absent from a system is
//! simply missing from its row (the paper skips rules whose entries are
//! absent, §6).  [`crate::ColumnStore`] pivots a list of rows into columns.

use crate::attr::AttrName;
use crate::value::ConfigValue;
use std::collections::BTreeMap;

/// One configured system: an id plus its attribute values.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Row {
    id: String,
    cells: BTreeMap<AttrName, ConfigValue>,
}

impl Row {
    /// Create an empty row for the system with the given id.
    pub fn new(id: impl Into<String>) -> Row {
        Row {
            id: id.into(),
            cells: BTreeMap::new(),
        }
    }

    /// The system identifier (e.g. an image name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Set an attribute value, returning the previous value if any.
    pub fn set(&mut self, attr: AttrName, value: ConfigValue) -> Option<ConfigValue> {
        self.cells.insert(attr, value)
    }

    /// Look up an attribute value.
    pub fn get(&self, attr: &AttrName) -> Option<&ConfigValue> {
        self.cells.get(attr)
    }

    /// Whether the row has a (present) value for `attr`.
    pub fn has(&self, attr: &AttrName) -> bool {
        self.cells
            .get(attr)
            .map(|v| !v.is_absent())
            .unwrap_or(false)
    }

    /// Iterate over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &ConfigValue)> {
        self.cells.iter()
    }

    /// Number of attributes set in this row.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the row has no attributes.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
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
}
