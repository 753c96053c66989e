//! Dense-id interning of attribute names and configuration values.
//!
//! Rule inference touches the same few hundred [`AttrName`]s and a few
//! thousand distinct [`ConfigValue`]s millions of times.  The [`Interner`]
//! maps each to a dense `u32` id resolved once per run, so the hot loops
//! compare integers instead of chasing `BTreeMap` nodes and re-rendering
//! strings.
//!
//! Interned values round-trip losslessly: ids are keyed on the *tagged*
//! rendering ([`ConfigValue::render_tagged`] /
//! [`AttrName::render_tagged`]) — the same unambiguous encodings the
//! snapshot format builds on — so two values share an id iff they are the
//! same typed value, and every id maps back to its exact original.  Keys
//! are written into one reused buffer ([`ConfigValue::write_tagged`]), and
//! ids follow insertion order, never the hash maps' order.
//!
//! Each value id additionally carries a precomputed *render class*: a dense
//! id over distinct [`ConfigValue::render`] strings.  Validators that
//! compare rendered values (`Equal`, `=~` family membership) compare render
//! classes — one integer comparison with semantics identical to comparing
//! the rendered strings.

use crate::attr::AttrName;
use crate::value::ConfigValue;
use std::collections::{BTreeMap, HashMap};

/// Dense id of an interned [`AttrName`].
///
/// Ids are assigned in sorted attribute order, so `AttrId(i)` is also the
/// index of the attribute in any sorted attribute list over the same
/// dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned [`ConfigValue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional map between attributes/values and dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    attrs: Vec<AttrName>,
    attr_ids: BTreeMap<AttrName, AttrId>,
    values: Vec<ConfigValue>,
    value_ids: HashMap<String, ValueId>,
    renders: Vec<String>,
    render_classes: Vec<u32>,
    distinct_renders: HashMap<String, u32>,
    /// Reused buffer holding the tagged key of the value being interned.
    key: String,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern an attribute name, returning its stable id.
    pub fn intern_attr(&mut self, attr: &AttrName) -> AttrId {
        if let Some(&id) = self.attr_ids.get(attr) {
            return id;
        }
        let id = AttrId(u32::try_from(self.attrs.len()).expect("< 2^32 attributes"));
        self.attrs.push(attr.clone());
        self.attr_ids.insert(attr.clone(), id);
        id
    }

    /// Intern a value, returning its stable id.  Two values share an id iff
    /// their tagged renderings ([`ConfigValue::render_tagged`]) are equal —
    /// i.e. iff they are the same typed value.
    pub fn intern_value(&mut self, value: &ConfigValue) -> ValueId {
        self.key.clear();
        value.write_tagged(&mut self.key);
        if let Some(&id) = self.value_ids.get(self.key.as_str()) {
            return id;
        }
        let id = ValueId(u32::try_from(self.values.len()).expect("< 2^32 values"));
        let render = value.render();
        let next_class = u32::try_from(self.distinct_renders.len()).expect("< 2^32 renders");
        let class = *self
            .distinct_renders
            .entry(render.clone())
            .or_insert(next_class);
        self.values.push(value.clone());
        self.value_ids.insert(self.key.clone(), id);
        self.renders.push(render);
        self.render_classes.push(class);
        id
    }

    /// Look up an already-interned attribute's id.
    pub fn attr_id(&self, attr: &AttrName) -> Option<AttrId> {
        self.attr_ids.get(attr).copied()
    }

    /// Look up an already-interned value's id.
    pub fn value_id(&self, value: &ConfigValue) -> Option<ValueId> {
        self.value_ids.get(&value.render_tagged()).copied()
    }

    /// The attribute behind an id.
    pub fn attr(&self, id: AttrId) -> &AttrName {
        &self.attrs[id.index()]
    }

    /// Every interned attribute, indexed by [`AttrId`].
    pub fn attrs(&self) -> &[AttrName] {
        &self.attrs
    }

    /// The exact original value behind an id (the lossless round-trip).
    pub fn value(&self, id: ValueId) -> &ConfigValue {
        &self.values[id.index()]
    }

    /// The precomputed [`ConfigValue::render`] string of an interned value.
    pub fn render_of(&self, id: ValueId) -> &str {
        &self.renders[id.index()]
    }

    /// The render class of an interned value: two ids have equal classes iff
    /// their [`ConfigValue::render`] strings are equal.
    pub fn render_class(&self, id: ValueId) -> u32 {
        self.render_classes[id.index()]
    }

    /// Number of interned attributes.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Number of interned distinct values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SizeUnit;

    #[test]
    fn value_ids_key_on_typed_identity_not_render() {
        let mut interner = Interner::new();
        let s = ConfigValue::str("10");
        let n = ConfigValue::number(10.0);
        let z = ConfigValue::size(10, SizeUnit::B);
        let ids = [
            interner.intern_value(&s),
            interner.intern_value(&n),
            interner.intern_value(&z),
        ];
        // Distinct typed values, distinct ids...
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        // ...but all render "10", so one shared render class.
        assert_eq!(interner.render_class(ids[0]), interner.render_class(ids[1]));
        assert_eq!(interner.render_class(ids[1]), interner.render_class(ids[2]));
        // Re-interning is stable.
        assert_eq!(interner.intern_value(&n), ids[1]);
        assert_eq!(interner.num_values(), 3);
    }

    #[test]
    fn interned_values_round_trip_to_tagged_rendering() {
        let mut interner = Interner::new();
        let cases = [
            ConfigValue::str("mysql"),
            ConfigValue::number(0.5),
            ConfigValue::size(64, SizeUnit::M),
            ConfigValue::boolean(true),
            ConfigValue::path("/var/lib/mysql"),
            ConfigValue::parse_ip("10.0.1.1").unwrap(),
        ];
        for v in &cases {
            let id = interner.intern_value(v);
            assert_eq!(interner.value(id), v);
            assert_eq!(interner.value(id).render_tagged(), v.render_tagged());
            assert_eq!(interner.render_of(id), v.render());
            assert_eq!(interner.value_id(v), Some(id));
        }
    }

    #[test]
    fn attr_ids_are_dense_and_stable() {
        let mut interner = Interner::new();
        let a = AttrName::entry("datadir");
        let b = AttrName::entry("datadir").augmented("owner");
        let ia = interner.intern_attr(&a);
        let ib = interner.intern_attr(&b);
        assert_eq!(ia, AttrId(0));
        assert_eq!(ib, AttrId(1));
        assert_eq!(interner.intern_attr(&a), ia);
        assert_eq!(interner.attr(ib), &b);
        assert_eq!(interner.attrs(), [a.clone(), b]);
        assert_eq!(interner.attr_id(&a), Some(ia));
        assert_eq!(interner.attr_id(&AttrName::entry("missing")), None);
        assert_eq!(interner.num_attrs(), 2);
    }

    #[test]
    fn render_classes_distinguish_distinct_renders() {
        let mut interner = Interner::new();
        let x = interner.intern_value(&ConfigValue::str("a"));
        let y = interner.intern_value(&ConfigValue::str("b"));
        assert_ne!(interner.render_class(x), interner.render_class(y));
    }
}
