//! A training worker's cell sink: it encodes each image's cells into its
//! [`RowEncoder`] as assembly emits them, and keeps a memo of everything
//! about an entry that does not depend on the image.
//!
//! A training crawl repeats most of its `(key, raw value)` pairs: the
//! values that "seldomly change" (§5.2).  The memo has one slot per
//! distinct pair, holding the entry's name, its syntactic candidates
//! (§4.2 step one), and per type the entry resolved to the local ids of
//! its coerced value and of the Table 5a names that type adds.  It caches
//! no verdict: each image still verifies the candidates (step two) and
//! reads its own Table 5a and 5b values, since one pair can resolve to
//! `FilePath` on one image and to `Str` on another.

use crate::augment::{self, EnvValue, SYSTEM_NAMES};
use crate::{infer, obs, syntactic, CellSink};
use encore_model::{AttrName, ConfigValue, EncodedRow, RowEncoder, SemType};
use std::collections::HashMap;

/// The [`CellSink`] of a training worker: the cells of the images it
/// assembles, encoded against its own dictionaries, each original entry's
/// type votes, and the memo slot of each distinct parsed entry.
///
/// A cell whose name and value the memo knows is put by ids; only the
/// values read from the image (owners, flags, host facts) are looked up by
/// value, and a flag's id is kept too.
#[derive(Debug)]
pub struct EncodedCells {
    encoder: RowEncoder,
    /// Per local attribute id, the type each image voted for the entry.
    votes: Vec<Vec<SemType>>,
    /// Distinct environment attributes of the image being encoded.
    env_attrs: u64,
    /// The slot of each distinct `(key, raw value)`, keyed by the key's
    /// length, the key and the value, so that no two pairs share a key.
    slot_of: HashMap<Box<[u8]>, u32>,
    slots: Vec<Slot>,
    /// Reused buffer holding the lookup key of the entry being opened.
    lookup: Vec<u8>,
    /// Local ids of [`SYSTEM_NAMES`], once met.
    system: [Option<u32>; SYSTEM_NAMES.len()],
    /// Local ids of `false` and `true`.
    bools: [u32; 2],
}

/// What the memo knows of one distinct `(key, raw value)`.
#[derive(Debug)]
struct Slot {
    /// Local id of the entry's name, or `None` when the key is not an
    /// entry name.
    attr: Option<u32>,
    candidates: Vec<SemType>,
    /// One per type the entry resolved to, in the order met.
    typed: Vec<Typed>,
}

/// One type an entry resolved to: the local ids of its coerced value and
/// of the Table 5a names the type adds, each given when first put, so that
/// the encoder meets only attributes a cell names.
#[derive(Debug)]
struct Typed {
    ty: SemType,
    value: Option<u32>,
    names: Vec<Option<u32>>,
}

impl Default for EncodedCells {
    fn default() -> Self {
        let mut encoder = RowEncoder::new();
        let bools = [false, true].map(|b| encoder.value_id(&ConfigValue::Bool(b)));
        EncodedCells {
            encoder,
            votes: Vec::new(),
            env_attrs: 0,
            slot_of: HashMap::new(),
            slots: Vec::new(),
            lookup: Vec::new(),
            system: [None; SYSTEM_NAMES.len()],
            bools,
        }
    }
}

impl EncodedCells {
    /// A sink with empty dictionaries and an empty memo.
    pub fn new() -> EncodedCells {
        EncodedCells::default()
    }

    /// Close the image being encoded, as the row `id`.
    pub fn finish(&mut self, id: &str) -> EncodedRow {
        obs::AUGMENTED_ATTRS.add(std::mem::take(&mut self.env_attrs));
        self.encoder.finish(id)
    }

    /// Drop the cells put since the last [`EncodedCells::finish`].
    pub fn discard(&mut self) {
        self.env_attrs = 0;
        self.encoder.discard();
    }

    /// The encoder, whose local attribute ids index [`EncodedCells::votes`].
    pub fn encoder(&self) -> &RowEncoder {
        &self.encoder
    }

    /// Per local attribute id, the type of the entry's last value in each
    /// image that set it, in the order the images were encoded; empty for
    /// an environment attribute.
    pub fn votes(&self) -> &[Vec<SemType>] {
        &self.votes
    }

    /// The encoder, for the merge of a training set's rows.
    pub fn into_encoder(self) -> RowEncoder {
        self.encoder
    }

    /// The slot of `key = raw`, made on the first meeting.
    fn slot(&mut self, key: &str, raw: &str) -> usize {
        self.lookup.clear();
        self.lookup.extend_from_slice(&key.len().to_le_bytes());
        self.lookup.extend_from_slice(key.as_bytes());
        self.lookup.extend_from_slice(raw.as_bytes());
        if let Some(&slot) = self.slot_of.get(self.lookup.as_slice()) {
            return slot as usize;
        }
        let attr = AttrName::try_entry(key)
            .ok()
            .map(|attr| self.encoder.attr_id(&attr));
        let slot = self.slots.len();
        self.slots.push(Slot {
            attr,
            candidates: attr.map_or_else(Vec::new, |_| syntactic::candidates(raw)),
            typed: Vec::new(),
        });
        let id = u32::try_from(slot).expect("< 2^32 slots");
        self.slot_of.insert(self.lookup.as_slice().into(), id);
        slot
    }

    /// The index in `slot`'s types of `ty`, added on the first meeting.
    fn typed(&mut self, slot: usize, ty: SemType) -> usize {
        let typed = &mut self.slots[slot].typed;
        match typed.iter().position(|t| t.ty == ty) {
            Some(t) => t,
            None => {
                typed.push(Typed {
                    ty,
                    value: None,
                    names: vec![None; augment::suffixes(ty).len()],
                });
                typed.len() - 1
            }
        }
    }

    fn value_id(&mut self, value: EnvValue<'_>) -> u32 {
        match value {
            EnvValue::Bool(b) => self.bools[usize::from(b)],
            EnvValue::Str(text) => self.encoder.str_id(text),
            EnvValue::Fmt(text) => self.encoder.fmt_id(text),
            EnvValue::Value(value) => self.encoder.value_id(&value),
        }
    }

    /// Put an environment cell, counting its attribute if it is new to the
    /// image.
    fn put_env(&mut self, attr: u32, value: EnvValue<'_>) {
        let value = self.value_id(value);
        self.env_attrs += u64::from(self.encoder.put_ids(attr, value));
    }
}

impl CellSink for EncodedCells {
    /// The entry's slot.
    type Entry = usize;

    fn open(&mut self, key: &str, raw: &str) -> Option<usize> {
        let slot = self.slot(key, raw);
        self.slots[slot].attr.map(|_| slot)
    }

    fn candidates(&self, &slot: &usize) -> Option<&[SemType]> {
        Some(&self.slots[slot].candidates)
    }

    fn env(&mut self, &slot: &usize, ty: SemType, i: usize, value: EnvValue<'_>) {
        let t = self.typed(slot, ty);
        let name = match self.slots[slot].typed[t].names[i] {
            Some(name) => name,
            None => {
                let entry = self.slots[slot].attr.expect("an open entry has a name");
                let attr = self.encoder.attrs()[entry as usize].augmented(augment::suffixes(ty)[i]);
                let name = self.encoder.attr_id(&attr);
                self.slots[slot].typed[t].names[i] = Some(name);
                name
            }
        };
        self.put_env(name, value);
    }

    /// Encode the entry's cell and tally its type: the image's first cell
    /// for the entry adds a vote, and a later one replaces it, so an image
    /// votes once per entry, with the type of the entry's last value.
    fn close(&mut self, slot: usize, raw: &str, ty: SemType) {
        let t = self.typed(slot, ty);
        let value = match self.slots[slot].typed[t].value {
            Some(value) => value,
            None => {
                let value = self.encoder.value_id(&infer::coerce(raw, ty));
                self.slots[slot].typed[t].value = Some(value);
                value
            }
        };
        let attr = self.slots[slot].attr.expect("an open entry has a name");
        let first = self.encoder.put_ids(attr, value);
        let local = attr as usize;
        if local >= self.votes.len() {
            self.votes.resize(local + 1, Vec::new());
        }
        let votes = &mut self.votes[local];
        if first {
            votes.push(ty);
        } else {
            *votes.last_mut().expect("the image voted for this entry") = ty;
        }
    }

    fn system(&mut self, j: usize, value: EnvValue<'_>) {
        let encoder = &mut self.encoder;
        let attr = *self.system[j]
            .get_or_insert_with(|| encoder.attr_id(&AttrName::system(SYSTEM_NAMES[j])));
        self.put_env(attr, value);
    }
}
