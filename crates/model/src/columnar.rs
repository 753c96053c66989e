//! Columnar view of assembled systems: one contiguous value-id column per
//! attribute plus a per-attribute row-presence bitset.
//!
//! Assembly produces row-major data, one system's cells at a time, which
//! is the right shape for assembly but the wrong one for inference:
//! validating one `(a, b)` attribute pair against every training system
//! would walk two lookups per system.  A [`ColumnStore`] pivots the table
//! once: column `i` holds the interned [`ValueId`] of attribute `i` for
//! every row in a flat `Vec<u32>`, and a presence bitset (bit `r` set iff
//! row `r` has a present, non-absent value) lets pair loops intersect two
//! columns one 64-row word at a time.
//!
//! The pivot has two halves, so the per-cell half can run where the
//! systems are assembled.  A [`RowEncoder`] keeps one worker's attribute
//! and value dictionaries and turns each system's cells, as assembly
//! emits them, into integer cells, so no [`Row`] need exist for a
//! training system.  [`ColumnStore::merge`] then builds the store from the
//! encoders and their encoded rows; [`ColumnStore::from_rows`] is one
//! encoder over borrowed rows followed by that merge.  Attribute ids
//! follow sorted attribute order — `AttrId(i)` is the `i`-th of the sorted
//! set of attributes any row's cells name, all-absent ones included — and
//! values intern in column-major, row-ascending order, so every id and
//! render class is deterministic for a given row list, however the rows
//! were split among encoders and in whatever order each row's cells came.
//!
//! A column can also be read by value: its [`Postings`] list each distinct
//! present value once, with the bitset of the rows that hold it, so a
//! relation decided from two values alone is decided once per distinct
//! value pair, and a histogram counts each value with popcounts.

use crate::attr::AttrName;
use crate::intern::{Interner, ValueId};
use crate::row::Row;
use crate::value::ConfigValue;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write};
use std::sync::OnceLock;

/// Sentinel for an absent cell, in a column's id vector and in an encoded
/// cell.  The merge's per-encoder value tables also use it for a local
/// value not yet given a global id.
const ABSENT: u32 = u32::MAX;

/// One attribute's values across all rows: interned ids plus a presence
/// bitset, and its value postings once they are asked for.
#[derive(Debug, Clone)]
pub struct Column {
    ids: Vec<u32>,
    presence: Vec<u64>,
    postings: OnceLock<Option<Postings>>,
}

impl Column {
    fn new(ids: Vec<u32>, presence: Vec<u64>) -> Column {
        Column {
            ids,
            presence,
            postings: OnceLock::new(),
        }
    }

    /// The interned value id at `row`, or `None` when the cell is absent.
    pub fn value_id(&self, row: usize) -> Option<ValueId> {
        match self.ids[row] {
            ABSENT => None,
            id => Some(ValueId(id)),
        }
    }

    /// Whether `row` has a present (non-absent) value.
    pub fn is_present(&self, row: usize) -> bool {
        self.presence[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// The row-presence bitset: bit `r` of the words is set iff row `r` has
    /// a present value.
    pub fn presence(&self) -> &[u64] {
        &self.presence
    }

    /// Number of rows with a present value (the attribute's support count).
    pub fn support(&self) -> usize {
        popcount(&self.presence)
    }

    /// The column's value postings, built on first use, or `None` when it
    /// holds more than [`Postings::MAX_VALUES`] distinct values.  Safe to
    /// ask from many threads: one builds them, and the others wait for it.
    pub fn postings(&self) -> Option<&Postings> {
        self.postings
            .get_or_init(|| Postings::build(&self.ids, self.presence.len()))
            .as_ref()
    }
}

/// The number of set bits in `words`.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A column's value postings: each distinct present value once, in the
/// order of the first row that holds it, with the bitset of the rows that
/// hold it, laid out as the presence bitset is.  The bitsets partition
/// the presence bitset.
#[derive(Debug, Clone)]
pub struct Postings {
    ids: Vec<u32>,
    /// The words of the value at `ids[k]` are `bits[k * words..][..words]`.
    bits: Vec<u64>,
    words: usize,
}

impl Postings {
    /// The most distinct values a column keeps postings for: one per bit of
    /// a presence word.  Tallying a pair from postings takes `dA × dB`
    /// bitset intersections of `words` words each, and a column with more
    /// values than that makes `dA × dB × words` exceed the rows for any
    /// partner, so its pairs are always tallied row by row.
    pub const MAX_VALUES: usize = u64::BITS as usize;

    /// Slots of the build's open-addressing table: twice the values kept,
    /// so it is at most half full.
    const SLOTS: usize = 2 * Postings::MAX_VALUES;

    /// The postings of a column's ids over `words` presence words, in one
    /// pass over its rows, or `None` once a value past
    /// [`Postings::MAX_VALUES`] appears.
    fn build(ids: &[u32], words: usize) -> Option<Postings> {
        // Slot of each value id met so far, probed linearly from a
        // multiplicative hash; a slot holds the value's index in
        // `postings.ids`.
        let mut slots = [u8::MAX; Postings::SLOTS];
        let shift = u32::BITS - Postings::SLOTS.trailing_zeros();
        let mut postings = Postings {
            ids: Vec::new(),
            bits: Vec::new(),
            words,
        };
        for (row, &id) in ids.iter().enumerate() {
            if id == ABSENT {
                continue;
            }
            let mut slot = (id.wrapping_mul(0x9e37_79b9) >> shift) as usize;
            let k = loop {
                match slots[slot] {
                    u8::MAX => {
                        if postings.ids.len() == Postings::MAX_VALUES {
                            return None;
                        }
                        let k = postings.ids.len();
                        slots[slot] = k as u8;
                        postings.ids.push(id);
                        postings.bits.resize(postings.bits.len() + words, 0);
                        break k;
                    }
                    k if postings.ids[k as usize] == id => break k as usize,
                    _ => slot = (slot + 1) % Postings::SLOTS,
                }
            };
            postings.bits[k * words + row / 64] |= 1u64 << (row % 64);
        }
        Some(postings)
    }

    /// Number of distinct present values.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the column has no present value.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Each distinct present value with the bitset of the rows that hold
    /// it.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &[u64])> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(k, &id)| (ValueId(id), &self.bits[k * self.words..][..self.words]))
    }
}

/// Columnar, interned view over one list of rows.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    interner: Interner,
    num_rows: usize,
    columns: Vec<Column>,
}

/// One cell of an encoded row: an encoder-local attribute id and an
/// encoder-local value id, or `ABSENT` for an absent value.
#[derive(Debug, Clone, Copy)]
struct Cell {
    attr: u32,
    value: u32,
}

/// One system's cells with their names and values replaced by the ids of
/// the [`RowEncoder`] that encoded them, one cell per attribute, in the
/// order the attributes were first put.
#[derive(Debug, Clone)]
pub struct EncodedRow {
    id: String,
    cells: Vec<Cell>,
}

impl EncodedRow {
    /// The system id of the row.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// One worker's dictionaries for the pivot's per-cell work: it encodes
/// each system's cells, in the order they are set, into an [`EncodedRow`]
/// of local ids, so a training system needs no [`Row`].
///
/// [`RowEncoder::put`] takes one cell of the system being encoded, and a
/// later cell for an attribute replaces the earlier one, as [`Row::set`]
/// does; [`RowEncoder::finish`] closes the system.  A caller that keeps
/// the local ids of the names and values it meets again puts their cells
/// by id ([`RowEncoder::put_ids`]), with no hash.  Values are keyed by
/// their tagged form ([`ConfigValue::write_tagged`]), as the [`Interner`]
/// keys them, so two values share a local id iff they share a global one.
/// Both maps use the default hasher, since the names and values come from
/// configuration files.  Local ids follow the order attributes and values
/// are first put, never the maps' order, and the merge reads no order
/// from them.
#[derive(Debug, Clone, Default)]
pub struct RowEncoder {
    attrs: Vec<AttrName>,
    attr_ids: HashMap<AttrName, u32>,
    /// Per local attribute: the serial of the last system that put it, and
    /// the index of that system's cell for it in `cells`.
    slots: Vec<(u64, u32)>,
    values: Vec<ConfigValue>,
    value_ids: HashMap<String, u32>,
    /// Reused buffer holding the tagged key of the value being encoded.
    key: String,
    /// The cells of the system being encoded.
    cells: Vec<Cell>,
    /// Serial of the system being encoded: a slot holding another serial
    /// belongs to an earlier system.
    serial: u64,
}

/// The serial of a slot no system has put yet.
const NEVER: u64 = u64::MAX;

/// `ConfigValue::write_tagged`'s tag of a `Str`.
const STR_TAG: &str = "s:";

impl RowEncoder {
    /// An encoder with empty dictionaries.
    pub fn new() -> RowEncoder {
        RowEncoder::default()
    }

    /// Encode a borrowed row: [`RowEncoder::put`] of each cell, then
    /// [`RowEncoder::finish`].
    pub fn encode(&mut self, row: &Row) -> EncodedRow {
        for (attr, value) in row.iter() {
            self.put(attr, value);
        }
        self.finish(row.id())
    }

    /// Put one cell of the system being encoded, and return the local id
    /// of its attribute and whether this is the system's first cell for
    /// it.  A later cell for the attribute replaces the earlier one.  An
    /// absent cell still records its attribute, since an all-absent
    /// attribute still gets a column.
    pub fn put(&mut self, attr: &AttrName, value: &ConfigValue) -> (usize, bool) {
        let attr = self.attr_id(attr);
        let value = self.value_id(value);
        (attr as usize, self.put_ids(attr, value))
    }

    /// [`RowEncoder::put`] by local ids, as [`RowEncoder::attr_id`] and
    /// [`RowEncoder::value_id`] gave them: whether this is the system's
    /// first cell for the attribute.
    ///
    /// # Panics
    ///
    /// Panics when `attr` is not a local attribute id.
    pub fn put_ids(&mut self, attr: u32, value: u32) -> bool {
        let slot = &mut self.slots[attr as usize];
        if slot.0 == self.serial {
            self.cells[slot.1 as usize].value = value;
            return false;
        }
        *slot = (
            self.serial,
            u32::try_from(self.cells.len()).expect("< 2^32 cells"),
        );
        self.cells.push(Cell { attr, value });
        true
    }

    /// Close the system being encoded: its cells, one per attribute, as
    /// the row `id`.
    pub fn finish(&mut self, id: &str) -> EncodedRow {
        let cells = self.cells.to_vec();
        self.discard();
        EncodedRow {
            id: id.to_string(),
            cells,
        }
    }

    /// Drop the cells put since the last [`RowEncoder::finish`], and start
    /// the next system.  The attributes those cells named stay in the
    /// dictionary, so the merge still gives each a column.
    pub fn discard(&mut self) {
        self.cells.clear();
        self.serial += 1;
    }

    /// Every attribute the encoder has met, indexed by local id.
    pub fn attrs(&self) -> &[AttrName] {
        &self.attrs
    }

    /// The local id of `attr`, given the first time it is met.  An
    /// attribute met here gets a column in the merge, so give ids only to
    /// attributes that a cell will name.
    pub fn attr_id(&mut self, attr: &AttrName) -> u32 {
        if let Some(&id) = self.attr_ids.get(attr) {
            return id;
        }
        let id = u32::try_from(self.attrs.len()).expect("< 2^32 attributes");
        self.attrs.push(attr.clone());
        self.attr_ids.insert(attr.clone(), id);
        self.slots.push((NEVER, 0));
        id
    }

    /// The local id of `value`, given the first time it is met; an absent
    /// value has a reserved id of its own.
    pub fn value_id(&mut self, value: &ConfigValue) -> u32 {
        if value.is_absent() {
            return ABSENT;
        }
        self.key.clear();
        value.write_tagged(&mut self.key);
        self.keyed_value_id(|_| value.clone())
    }

    /// [`RowEncoder::value_id`] of [`ConfigValue::Str`] of `text`, which is
    /// built only the first time it is met.
    pub fn str_id(&mut self, text: &str) -> u32 {
        self.key.clear();
        self.key.push_str(STR_TAG);
        self.key.push_str(text);
        self.keyed_value_id(|_| ConfigValue::str(text))
    }

    /// [`RowEncoder::str_id`] of the text `text` formats to, which is
    /// formatted into the encoder's key buffer and built only the first
    /// time it is met.
    pub fn fmt_id(&mut self, text: fmt::Arguments<'_>) -> u32 {
        self.key.clear();
        self.key.push_str(STR_TAG);
        self.key
            .write_fmt(text)
            .expect("formatting into a String does not fail");
        self.keyed_value_id(|key| ConfigValue::str(&key[STR_TAG.len()..]))
    }

    /// The id of the value whose tagged form is in `self.key`; `value`
    /// builds the value from that form the first time it is met.
    fn keyed_value_id(&mut self, value: impl FnOnce(&str) -> ConfigValue) -> u32 {
        if let Some(&id) = self.value_ids.get(self.key.as_str()) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("< 2^32 values");
        self.values.push(value(&self.key));
        self.value_ids.insert(self.key.clone(), id);
        id
    }
}

impl ColumnStore {
    /// Pivot borrowed rows into columns: one encoder over every row, then
    /// [`ColumnStore::merge`].  An attribute whose cells are all absent
    /// still gets an (empty) column.
    pub fn from_rows(rows: &[&Row]) -> ColumnStore {
        let mut encoder = RowEncoder::new();
        let encoded: Vec<(usize, EncodedRow)> =
            rows.iter().map(|row| (0, encoder.encode(row))).collect();
        ColumnStore::merge(&[encoder], &encoded)
    }

    /// Build the store from encoded rows, in row order, each paired with
    /// the index in `encoders` of the encoder that encoded it.  Every row
    /// an encoder encoded must be here: its attributes all get columns.
    ///
    /// The sorted union of the encoders' attribute names is interned
    /// first, so `AttrId(i)` is the sorted index, and the cells are
    /// scattered into those columns.  Then one pass, column by column and
    /// row by row within a column, maps each encoder-local value to its
    /// global id, interning it the first time it is met.  That meets the
    /// values in the order a pivot of the rows themselves would and keys
    /// them by the same tagged form, so every id, stored value and render
    /// class is the same for any split of the rows among encoders.
    ///
    /// # Panics
    ///
    /// Panics when a row's encoder index is out of range of `encoders`.  A
    /// row paired with an encoder other than its own may panic too, or
    /// give a wrong table.
    pub fn merge(encoders: &[RowEncoder], rows: &[(usize, EncodedRow)]) -> ColumnStore {
        let mut names: Vec<&AttrName> = encoders.iter().flat_map(|e| &e.attrs).collect();
        names.sort_unstable();
        names.dedup();
        let mut interner = Interner::new();
        for name in names {
            interner.intern_attr(name);
        }
        let global_attrs: Vec<Vec<u32>> = encoders
            .iter()
            .map(|e| {
                e.attrs
                    .iter()
                    .map(|attr| interner.attr_id(attr).expect("interned above").0)
                    .collect()
            })
            .collect();

        let num_rows = rows.len();
        let mut columns: Vec<Column> = (0..interner.num_attrs())
            .map(|_| Column::new(vec![ABSENT; num_rows], vec![0u64; num_rows.div_ceil(64)]))
            .collect();
        for (r, (e, row)) in rows.iter().enumerate() {
            for cell in row.cells.iter().filter(|cell| cell.value != ABSENT) {
                let column = &mut columns[global_attrs[*e][cell.attr as usize] as usize];
                column.ids[r] = cell.value;
                column.presence[r / 64] |= 1u64 << (r % 64);
            }
        }

        let row_encoders: Vec<usize> = rows.iter().map(|(e, _)| *e).collect();
        let mut global_values: Vec<Vec<u32>> = encoders
            .iter()
            .map(|e| vec![ABSENT; e.values.len()])
            .collect();
        for column in &mut columns {
            for (id, &e) in column.ids.iter_mut().zip(&row_encoders) {
                if *id == ABSENT {
                    continue;
                }
                let global = &mut global_values[e][*id as usize];
                if *global == ABSENT {
                    *global = interner.intern_value(&encoders[e].values[*id as usize]).0;
                }
                *id = *global;
            }
        }
        ColumnStore {
            interner,
            num_rows,
            columns,
        }
    }

    /// The attribute/value interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of pivoted rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attribute columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column of the attribute with sorted index `index`.
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// The column of an attribute, if any row names it.
    pub fn column_of(&self, attr: &AttrName) -> Option<&Column> {
        self.interner
            .attr_id(attr)
            .map(|id| &self.columns[id.index()])
    }

    /// The exact original value behind an interned id.
    pub fn value(&self, id: ValueId) -> &ConfigValue {
        self.interner.value(id)
    }

    /// Frequency of each rendered value in column `index`, keyed by the
    /// interned render strings: the number of present cells whose
    /// [`ConfigValue::render`] is each key, iterated in sorted-render
    /// order, as a row loop counting renders into a `BTreeMap` would give.
    pub fn value_histogram(&self, index: usize) -> BTreeMap<&str, usize> {
        // Count each distinct id once, from its posting's popcount or, in a
        // column with too many values for postings, from a run of the
        // sorted ids; then merge the few distinct ids by render.
        let column = &self.columns[index];
        let mut hist: BTreeMap<&str, usize> = BTreeMap::new();
        let mut count = |id: u32, cells: usize| {
            *hist
                .entry(self.interner.render_of(ValueId(id)))
                .or_insert(0) += cells;
        };
        match column.postings() {
            Some(postings) => {
                for (id, bits) in postings.iter() {
                    count(id.0, popcount(bits));
                }
            }
            None => {
                let mut ids: Vec<u32> = column
                    .ids
                    .iter()
                    .copied()
                    .filter(|&raw| raw != ABSENT)
                    .collect();
                ids.sort_unstable();
                for run in ids.chunk_by(|x, y| x == y) {
                    count(run[0], run.len());
                }
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::AttrId;
    use crate::value::SizeUnit;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn build(rows: &[Row]) -> ColumnStore {
        ColumnStore::from_rows(&rows.iter().collect::<Vec<_>>())
    }

    /// 70 rows, so every presence bitset spans two words.
    fn rows() -> Vec<Row> {
        (0..70)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                r.set(AttrName::entry("user"), ConfigValue::str("mysql"));
                if i % 2 == 0 {
                    r.set(
                        AttrName::entry("datadir"),
                        ConfigValue::path(format!("/var/lib/mysql{}", i % 3)),
                    );
                }
                if i == 5 {
                    r.set(AttrName::entry("port"), ConfigValue::Absent);
                }
                r
            })
            .collect()
    }

    /// Every attribute any row names, sorted: the reference column order.
    fn attributes(rows: &[Row]) -> BTreeSet<AttrName> {
        rows.iter()
            .flat_map(|r| r.iter().map(|(a, _)| a.clone()))
            .collect()
    }

    /// Reference presence words: bit `i` set iff `rows[i]` has a present
    /// value for `attr`.
    fn presence_of(rows: &[Row], attr: &AttrName) -> Vec<u64> {
        let mut mask = vec![0u64; rows.len().div_ceil(64)];
        for (i, row) in rows.iter().enumerate() {
            if row.has(attr) {
                mask[i / 64] |= 1u64 << (i % 64);
            }
        }
        mask
    }

    /// Reference histogram: present renders counted into a `BTreeMap`.
    fn histogram_of(rows: &[Row], attr: &AttrName) -> BTreeMap<String, usize> {
        let mut hist = BTreeMap::new();
        for v in rows.iter().filter_map(|r| r.get(attr)) {
            if !v.is_absent() {
                *hist.entry(v.render()).or_insert(0) += 1;
            }
        }
        hist
    }

    #[test]
    fn presence_and_support_match_a_row_loop() {
        let rows = rows();
        let store = build(&rows);
        assert_eq!(store.num_rows(), 70);
        let attrs = attributes(&rows);
        assert_eq!(store.num_columns(), attrs.len());
        for (i, attr) in attrs.iter().enumerate() {
            let want = presence_of(&rows, attr);
            assert_eq!(want.len(), 2, "{attr}: two presence words");
            assert_eq!(store.column(i).presence(), want.as_slice(), "{attr}");
            let support = rows.iter().filter(|r| r.has(attr)).count();
            assert_eq!(store.column(i).support(), support, "{attr}");
            assert!(std::ptr::eq(
                store.column_of(attr).unwrap(),
                store.column(i)
            ));
        }
        assert!(store.column_of(&AttrName::entry("missing")).is_none());
    }

    #[test]
    fn histograms_match_a_row_loop() {
        let rows = rows();
        let store = build(&rows);
        for (i, attr) in attributes(&rows).iter().enumerate() {
            let columnar: Vec<(String, usize)> = store
                .value_histogram(i)
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect();
            let row_major: Vec<(String, usize)> = histogram_of(&rows, attr).into_iter().collect();
            assert_eq!(columnar, row_major, "{attr}");
            assert_postings_match(store.column(i));
        }
    }

    /// Check a column's postings against its ids: each value's bits are
    /// exactly the rows that hold it, and together they partition the
    /// presence bitset.
    fn assert_postings_match(column: &Column) {
        let postings = column.postings().expect("the column keeps postings");
        let mut union = vec![0u64; column.presence().len()];
        for (id, bits) in postings.iter() {
            for row in 0..column.ids.len() {
                let set = (bits[row / 64] >> (row % 64)) & 1 == 1;
                assert_eq!(set, column.value_id(row) == Some(id), "row {row}");
            }
            for (all, &word) in union.iter_mut().zip(bits) {
                assert_eq!(*all & word, 0, "a row in two postings");
                *all |= word;
            }
        }
        assert_eq!(union, column.presence());
    }

    /// A column of 64 distinct values keeps postings, and one of 65 keeps
    /// none; both count the same histograms as a row loop.  130 rows, so
    /// the bitsets span three words.
    #[test]
    fn postings_stop_past_one_value_per_bit_of_a_word() {
        let (sixty_four, sixty_five) = (AttrName::entry("a64"), AttrName::entry("a65"));
        let rows: Vec<Row> = (0..130)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                r.set(sixty_four.clone(), ConfigValue::number((i % 64) as f64));
                if i != 7 {
                    r.set(sixty_five.clone(), ConfigValue::str(format!("v{}", i % 65)));
                }
                r
            })
            .collect();
        let store = build(&rows);
        let column = store.column_of(&sixty_four).expect("column");
        assert_eq!(column.postings().map(Postings::len), Some(64));
        assert_postings_match(column);
        assert!(store
            .column_of(&sixty_five)
            .expect("column")
            .postings()
            .is_none());
        for (i, attr) in attributes(&rows).iter().enumerate() {
            let columnar: Vec<(String, usize)> = store
                .value_histogram(i)
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect();
            let row_major: Vec<(String, usize)> = histogram_of(&rows, attr).into_iter().collect();
            assert_eq!(columnar, row_major, "{attr}");
        }
    }

    #[test]
    fn cells_round_trip_through_ids() {
        let rows = rows();
        let store = build(&rows);
        for (i, attr) in attributes(&rows).iter().enumerate() {
            let column = store.column(i);
            for (r, row) in rows.iter().enumerate() {
                match row.get(attr).filter(|v| !v.is_absent()) {
                    Some(v) => {
                        let id = column.value_id(r).expect("present cell has an id");
                        assert!(column.is_present(r));
                        assert_eq!(store.interner().value(id), v);
                        assert_eq!(
                            store.interner().value(id).render_tagged(),
                            v.render_tagged()
                        );
                    }
                    None => {
                        assert_eq!(column.value_id(r), None);
                        assert!(!column.is_present(r));
                    }
                }
            }
        }
    }

    #[test]
    fn absent_cells_are_not_interned_as_present() {
        let store = build(&rows());
        let port = store.column_of(&AttrName::entry("port")).expect("column");
        assert_eq!(port.support(), 0);
        assert_eq!(port.value_id(5), None);
    }

    /// The per-attribute pivot the one-pass build replaced: a sorted
    /// attribute scan, then one map lookup per (attribute, row).
    fn build_reference(rows: &[Row]) -> ColumnStore {
        let mut interner = Interner::new();
        let num_rows = rows.len();
        let mut columns = Vec::new();
        for attr in &attributes(rows) {
            interner.intern_attr(attr);
            let mut ids = vec![ABSENT; num_rows];
            let mut presence = vec![0u64; num_rows.div_ceil(64)];
            for (r, row) in rows.iter().enumerate() {
                if let Some(value) = row.get(attr).filter(|v| !v.is_absent()) {
                    ids[r] = interner.intern_value(value).0;
                    presence[r / 64] |= 1u64 << (r % 64);
                }
            }
            columns.push(Column::new(ids, presence));
        }
        ColumnStore {
            interner,
            num_rows,
            columns,
        }
    }

    /// Attribute names: plain entries, a PHP-style dotted entry (which
    /// displays like an augmented property), augmented properties and a
    /// system-wide attribute.
    fn attr_of(pick: usize) -> AttrName {
        match pick {
            0 => AttrName::entry("port"),
            1 => AttrName::entry("session.use_cookies"),
            2 => AttrName::entry("session"),
            3 => AttrName::entry("session").augmented("use_cookies"),
            4 => AttrName::entry("datadir").augmented("owner"),
            5 => AttrName::entry("datadir"),
            6 => AttrName::system("Sys.HostName"),
            _ => AttrName::entry("user#2"),
        }
    }

    /// Values, including `Absent` cells and three different types that all
    /// render `"10"`.
    fn value_of(pick: usize) -> ConfigValue {
        match pick {
            0 => ConfigValue::Absent,
            1 => ConfigValue::str("10"),
            2 => ConfigValue::number(10.0),
            3 => ConfigValue::size(10, SizeUnit::B),
            4 => ConfigValue::str("mysql"),
            5 => ConfigValue::path("/var/lib/mysql"),
            6 => ConfigValue::boolean(true),
            _ => ConfigValue::str("On"),
        }
    }

    /// The merged store is the reference pivot: attribute order, every
    /// value id and stored value, render classes, each column's ids,
    /// presence words and histogram.
    fn assert_same_store(got: &ColumnStore, want: &ColumnStore) {
        assert_eq!(got.num_rows(), want.num_rows());
        assert_eq!(got.interner().attrs(), want.interner().attrs());
        assert_eq!(got.interner().num_values(), want.interner().num_values());
        for v in 0..want.interner().num_values() {
            let id = ValueId(u32::try_from(v).expect("small"));
            assert_eq!(got.value(id), want.value(id));
            assert_eq!(
                got.interner().render_class(id),
                want.interner().render_class(id)
            );
        }
        for i in 0..want.num_columns() {
            let attr = want
                .interner()
                .attr(AttrId(u32::try_from(i).expect("small")));
            assert_eq!(&got.column(i).ids, &want.column(i).ids, "{attr}");
            assert_eq!(
                got.column(i).presence(),
                want.column(i).presence(),
                "{attr}"
            );
            assert_eq!(got.value_histogram(i), want.value_histogram(i), "{attr}");
            assert_postings_match(got.column(i));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass build over borrowed rows is the same pivot as the
        /// per-attribute reference loop for any sparse row list: attribute
        /// order, every value id, presence words, render classes and
        /// histograms.
        #[test]
        fn one_pass_build_matches_the_reference_loop(
            cells in prop::collection::vec(
                prop::collection::vec((0usize..8, 0usize..8), 0..10),
                0..80,
            ),
        ) {
            let rows: Vec<Row> = cells
                .iter()
                .enumerate()
                .map(|(r, row_cells)| {
                    let mut row = Row::new(format!("s{r}"));
                    for &(a, v) in row_cells {
                        row.set(attr_of(a), value_of(v));
                    }
                    row
                })
                .collect();
            let (got, want) = (build(&rows), build_reference(&rows));
            prop_assert_eq!(got.num_rows(), want.num_rows());
            prop_assert_eq!(got.interner().attrs(), want.interner().attrs());
            prop_assert_eq!(got.interner().num_values(), want.interner().num_values());
            for v in 0..want.interner().num_values() {
                let id = ValueId(u32::try_from(v).expect("small"));
                prop_assert_eq!(got.value(id), want.value(id));
                prop_assert_eq!(
                    got.interner().render_class(id),
                    want.interner().render_class(id)
                );
            }
            for i in 0..want.num_columns() {
                let attr = want.interner().attr(AttrId(u32::try_from(i).expect("small")));
                prop_assert_eq!(&got.column(i).ids, &want.column(i).ids, "{}", attr);
                prop_assert_eq!(got.column(i).presence(), want.column(i).presence(), "{}", attr);
                prop_assert_eq!(got.value_histogram(i), want.value_histogram(i), "{}", attr);
            }
        }

        /// Rows split among one to four encoders, each row going to any
        /// encoder, merge into the reference pivot of the same rows.
        #[test]
        fn merged_encoders_match_the_reference_loop(
            cells in prop::collection::vec(
                (prop::collection::vec((0usize..8, 0usize..8), 0..10), 0usize..4),
                0..80,
            ),
            num_encoders in 1usize..5,
        ) {
            let rows: Vec<Row> = cells
                .iter()
                .enumerate()
                .map(|(r, (row_cells, _))| {
                    let mut row = Row::new(format!("s{r}"));
                    for &(a, v) in row_cells {
                        row.set(attr_of(a), value_of(v));
                    }
                    row
                })
                .collect();
            let mut encoders = vec![RowEncoder::new(); num_encoders];
            let encoded: Vec<(usize, EncodedRow)> = rows
                .iter()
                .zip(&cells)
                .map(|(row, (_, pick))| {
                    let e = pick % num_encoders;
                    (e, encoders[e].encode(row))
                })
                .collect();
            assert_same_store(&ColumnStore::merge(&encoders, &encoded), &build_reference(&rows));
        }

        /// Cell streams with repeated names, put straight into one to four
        /// encoders, each system to any of them and in any order, merge
        /// into the reference pivot of the rows `Row::set` builds from the
        /// same streams; and `Row::from_cells` of each stream is that row.
        #[test]
        fn streamed_cells_match_rows_built_by_set(
            streams in prop::collection::vec(
                (prop::collection::vec((0usize..8, 0usize..8), 0..16), 0usize..4, 0usize..1000),
                0..80,
            ),
            num_encoders in 1usize..5,
        ) {
            let cells_of = |stream: &[(usize, usize)]| -> Vec<(AttrName, ConfigValue)> {
                stream.iter().map(|&(a, v)| (attr_of(a), value_of(v))).collect()
            };
            let rows: Vec<Row> = streams
                .iter()
                .enumerate()
                .map(|(r, (stream, _, _))| {
                    let mut row = Row::new(format!("s{r}"));
                    for (attr, value) in cells_of(stream) {
                        row.set(attr, value);
                    }
                    row
                })
                .collect();
            let mut order: Vec<usize> = (0..streams.len()).collect();
            order.sort_by_key(|&r| streams[r].2);
            let mut encoders = vec![RowEncoder::new(); num_encoders];
            let mut encoded: Vec<Option<(usize, EncodedRow)>> = vec![None; streams.len()];
            for r in order {
                let (stream, pick, _) = &streams[r];
                let e = pick % num_encoders;
                for (attr, value) in cells_of(stream) {
                    encoders[e].put(&attr, &value);
                }
                encoded[r] = Some((e, encoders[e].finish(rows[r].id())));
            }
            let encoded: Vec<(usize, EncodedRow)> = encoded.into_iter().flatten().collect();
            assert_same_store(&ColumnStore::merge(&encoders, &encoded), &build_reference(&rows));
            for ((stream, _, _), row) in streams.iter().zip(&rows) {
                let built = Row::from_cells(row.id(), cells_of(stream));
                prop_assert_eq!(&built, row);
                prop_assert_eq!(built.len(), row.len());
                prop_assert!(built.iter().eq(row.iter()));
                for a in 0..8 {
                    let attr = attr_of(a);
                    prop_assert_eq!(built.get(&attr), row.get(&attr), "{}", attr);
                    prop_assert_eq!(built.has(&attr), row.has(&attr), "{}", attr);
                }
            }
        }
    }

    #[test]
    fn put_reports_the_first_cell_of_each_system() {
        let mut encoder = RowEncoder::new();
        let (port, user) = (AttrName::entry("port"), AttrName::entry("user"));
        assert_eq!(encoder.put(&port, &ConfigValue::number(1.0)), (0, true));
        assert_eq!(encoder.put(&user, &ConfigValue::str("a")), (1, true));
        assert_eq!(encoder.put(&port, &ConfigValue::number(2.0)), (0, false));
        let first = encoder.finish("s0");
        assert_eq!(first.cells.len(), 2);
        assert_eq!(encoder.put(&user, &ConfigValue::Absent), (1, true));
        let second = encoder.finish("s1");
        let store = ColumnStore::merge(&[encoder], &[(0, first), (0, second)]);
        let port = store.column_of(&port).expect("port column");
        assert_eq!(
            store.value(port.value_id(0).expect("set")),
            &ConfigValue::number(2.0)
        );
        assert_eq!(port.value_id(1), None);
        assert_eq!(store.column_of(&user).expect("user column").support(), 1);
    }

    #[test]
    fn ids_are_the_ids_put_gives() {
        let mut encoder = RowEncoder::new();
        let text = encoder.str_id("a b");
        assert_eq!(encoder.value_id(&ConfigValue::str("a b")), text);
        assert_eq!(encoder.str_id("a b"), text);
        assert_eq!(encoder.fmt_id(format_args!("{} {}", 'a', "b")), text);
        // Text first met formatted is stored as its `Str`.
        let mode = encoder.fmt_id(format_args!("{:o}", 0o750));
        assert_eq!(encoder.str_id("750"), mode);
        assert_eq!(encoder.values[mode as usize], ConfigValue::str("750"));
        // A path and a string with the same text are two values.
        assert_ne!(encoder.value_id(&ConfigValue::path("a b")), text);
        assert_eq!(encoder.value_id(&ConfigValue::Absent), ABSENT);
        let user = AttrName::entry("user");
        let attr = encoder.attr_id(&user);
        assert!(encoder.put_ids(attr, text));
        assert_eq!(
            encoder.put(&user, &ConfigValue::str("a b")),
            (attr as usize, false)
        );
        let row = encoder.finish("s0");
        let store = ColumnStore::merge(&[encoder], &[(0, row)]);
        let column = store.column_of(&user).expect("user column");
        assert_eq!(
            store.value(column.value_id(0).expect("set")),
            &ConfigValue::str("a b")
        );
    }
}
