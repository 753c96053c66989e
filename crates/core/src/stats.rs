//! A training set's column table and the statistics read off it.
//!
//! Rule inference, the filters and the detector consult three
//! per-attribute statistics over and over:
//!
//! * the **semantic type** of each attribute, when gathering eligible slot
//!   bindings — resolved once here instead of through [`TypeMap::type_of`]
//!   for every template;
//! * the **Shannon entropy** of each attribute's value distribution, when
//!   the entropy filter judges a candidate — memoized here, since many
//!   candidates share attributes;
//! * the **row-presence bitset** of each attribute, which lets the
//!   eligibility analysis decide in O(rows/64) words whether two attributes
//!   ever co-occur — the precondition for any candidate rule between them;
//! * the **`=~` family** of each attribute: the attributes sharing its
//!   occurrence-stripped base name and suffix, which `=~` candidates probe.
//!
//! [`StatsCache`] resolves types and groups families up front, reads
//! presence bitsets off its columns and memoizes entropies on first use,
//! in one slot per column.  All of these are indexed like the columns, by
//! the sorted attribute index, so inference's pair loop reads them without
//! a name search.  Everything is immutable after construction except the
//! write-once entropy slots, so the cache can be shared read-only across
//! the inference worker pool.
//!
//! A training set builds its cache once, at assembly
//! ([`crate::TrainingSet::stats_cache`]): the cache merges the rows the
//! assembly workers encoded into a [`ColumnStore`] and keeps only that
//! store, the system ids and the type map.  Attributes, entropy histograms
//! and the detector's statistics are all read off it, by every run over
//! the set.

use crate::relation::strip_occurrence;
use crate::types::TypeMap;
use encore_mining::metrics::entropy;
use encore_model::{AttrName, ColumnStore, EncodedRow, Row, RowEncoder, SemType};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// One training set's attribute statistics: resolved types, the columnar
/// interned view of the rows (value-id columns + presence bitsets),
/// per-type attribute buckets, and memoized entropies.
#[derive(Debug)]
pub struct StatsCache {
    /// System id of each row, in row order.
    system_ids: Vec<String>,
    /// Resolved type of `attributes()[i]`, indexed like the columns.
    types_by_index: Vec<SemType>,
    /// Attribute indices (into `attributes`) grouped by resolved semantic
    /// type, each bucket ascending — the eligibility bitsets inverted into
    /// the enumeration structure, so slot bindings come from a bucket
    /// lookup instead of a filter over every attribute.
    buckets: BTreeMap<SemType, Vec<usize>>,
    /// The `=~` family table: `families[family_of[i]]` holds the ascending
    /// indices of every attribute sharing `attributes()[i]`'s
    /// occurrence-stripped base name and its suffix, `i` included.
    family_of: Vec<usize>,
    families: Vec<Vec<usize>>,
    columns: ColumnStore,
    type_map: TypeMap,
    /// Entropy of `attributes()[i]`, indexed like the columns, filled on
    /// first use.
    entropies: Vec<OnceLock<f64>>,
}

impl StatsCache {
    /// Build a cache over borrowed training rows: encode them with one
    /// encoder, then [`StatsCache::from_encoded`].
    pub fn from_rows(rows: &[&Row], types: &TypeMap) -> StatsCache {
        let mut encoder = RowEncoder::new();
        let encoded: Vec<(usize, EncodedRow)> =
            rows.iter().map(|row| (0, encoder.encode(row))).collect();
        StatsCache::from_encoded(&[encoder], &encoded, types)
    }

    /// Build a cache over encoded training rows, in row order, each with
    /// the index in `encoders` of the encoder that encoded it: merge them
    /// into columns, then resolve the type of every attribute once through
    /// `types`.
    pub fn from_encoded(
        encoders: &[RowEncoder],
        rows: &[(usize, EncodedRow)],
        types: &TypeMap,
    ) -> StatsCache {
        let _span = crate::obs::STATS_BUILD_TIME.span();
        let columns = encore_assemble::column_store(encoders, rows);
        let attributes = columns.interner().attrs();
        crate::obs::STATS_ATTRIBUTES.add(attributes.len() as u64);
        let types_by_index: Vec<SemType> = attributes.iter().map(|a| types.type_of(a)).collect();
        let mut buckets: BTreeMap<SemType, Vec<usize>> = BTreeMap::new();
        for (i, &ty) in types_by_index.iter().enumerate() {
            buckets.entry(ty).or_default().push(i);
        }
        let mut family_ids: HashMap<(String, Option<&str>), usize> = HashMap::new();
        let mut families: Vec<Vec<usize>> = Vec::new();
        let mut family_of = Vec::with_capacity(attributes.len());
        for (i, attr) in attributes.iter().enumerate() {
            let key = (strip_occurrence(attr.base()), attr.suffix());
            let id = *family_ids.entry(key).or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
            families[id].push(i);
            family_of.push(id);
        }
        StatsCache {
            system_ids: rows.iter().map(|(_, row)| row.id().to_string()).collect(),
            entropies: attributes.iter().map(|_| OnceLock::new()).collect(),
            types_by_index,
            buckets,
            family_of,
            families,
            columns,
            type_map: types.clone(),
        }
    }

    /// Number of training systems.
    pub fn num_rows(&self) -> usize {
        self.columns.num_rows()
    }

    /// The id of the training system behind row `row`.
    pub fn system_id(&self, row: usize) -> &str {
        &self.system_ids[row]
    }

    /// Every attribute appearing in the dataset, in stable (sorted) order.
    pub fn attributes(&self) -> &[AttrName] {
        self.columns.interner().attrs()
    }

    /// Whether the dataset contains the attribute at all.
    pub fn has_attribute(&self, attr: &AttrName) -> bool {
        self.attr_index(attr).is_some()
    }

    /// The type map the attribute types were resolved through.
    pub fn types(&self) -> &TypeMap {
        &self.type_map
    }

    /// The resolved semantic type of an attribute (falling back to the
    /// source [`TypeMap`] for attributes outside the dataset).
    pub fn type_of(&self, attr: &AttrName) -> SemType {
        match self.attr_index(attr) {
            Some(i) => self.types_by_index[i],
            None => self.type_map.type_of(attr),
        }
    }

    /// The columnar interned view of the dataset: one value-id column per
    /// attribute (same sorted order as [`StatsCache::attributes`]) plus
    /// per-attribute presence bitsets.
    pub fn columns(&self) -> &ColumnStore {
        &self.columns
    }

    /// The index of an attribute in [`StatsCache::attributes`] (equally:
    /// its column index), if the dataset contains it.
    pub fn attr_index(&self, attr: &AttrName) -> Option<usize> {
        self.columns.interner().attr_id(attr).map(|id| id.index())
    }

    /// The resolved semantic type of the attribute at sorted index `index`.
    pub(crate) fn type_at(&self, index: usize) -> SemType {
        self.types_by_index[index]
    }

    /// The ascending attribute indices whose resolved type is exactly `ty`
    /// — empty when no attribute has that type.
    pub(crate) fn type_bucket(&self, ty: SemType) -> &[usize] {
        self.buckets.get(&ty).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The `=~` family of the attribute at `index`: the ascending indices of
    /// every attribute that shares its occurrence-stripped base name
    /// (`LoadModule#3/arg1` → `LoadModule/arg1`) and its suffix, itself
    /// included.
    pub(crate) fn family(&self, index: usize) -> &[usize] {
        &self.families[self.family_of[index]]
    }

    /// Whether the attributes at indices `a` and `b` are both present in at
    /// least one row — a necessary condition for *any* relation between
    /// them to be applicable anywhere, and therefore for any candidate rule
    /// to exist.
    pub fn co_occurs(&self, a: usize, b: usize) -> bool {
        self.columns
            .column(a)
            .presence()
            .iter()
            .zip(self.columns.column(b).presence())
            .any(|(x, y)| x & y != 0)
    }

    /// Shannon entropy of the attribute's value distribution, computed at
    /// most once per attribute.  An attribute outside the dataset has an
    /// empty histogram and entropy 0.
    pub fn entropy(&self, attr: &AttrName) -> f64 {
        self.attr_index(attr)
            .map_or_else(|| entropy([]), |i| self.entropy_at(i))
    }

    /// [`StatsCache::entropy`] of the attribute at sorted index `index`.
    pub(crate) fn entropy_at(&self, index: usize) -> f64 {
        // The column histogram iterates in sorted-render order, as a row
        // loop's `BTreeMap` of renders would, so the f64 summation order —
        // and therefore the entropy, bit for bit — is that of a row loop.
        *self.entropies[index]
            .get_or_init(|| entropy(self.columns.value_histogram(index).into_values()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::ConfigValue;

    fn rows() -> Vec<Row> {
        (0..12)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                r.set(AttrName::entry("varied"), ConfigValue::str(format!("v{i}")));
                r.set(AttrName::entry("fixed"), ConfigValue::str("same"));
                r.set(
                    AttrName::entry("thirds"),
                    ConfigValue::str(format!("t{}", i % 3)),
                );
                if i < 6 {
                    r.set(AttrName::entry("early"), ConfigValue::str("e"));
                } else {
                    r.set(AttrName::entry("late"), ConfigValue::str("l"));
                }
                r
            })
            .collect()
    }

    fn cache(rows: &[Row], types: &TypeMap) -> StatsCache {
        StatsCache::from_rows(&rows.iter().collect::<Vec<_>>(), types)
    }

    /// The uncached reference: entropy of the attribute's present renders,
    /// counted into a `BTreeMap` by a loop over the rows.
    fn row_entropy(rows: &[Row], attr: &AttrName) -> f64 {
        let mut hist: BTreeMap<String, usize> = BTreeMap::new();
        for v in rows.iter().filter_map(|r| r.get(attr)) {
            if !v.is_absent() {
                *hist.entry(v.render()).or_insert(0) += 1;
            }
        }
        entropy(hist.into_values())
    }

    #[test]
    fn entropy_matches_the_row_histogram_bit_for_bit() {
        let rows = rows();
        let cache = cache(&rows, &TypeMap::new());
        for name in ["varied", "fixed", "thirds", "early", "late", "absent"] {
            let attr = AttrName::entry(name);
            let direct = row_entropy(&rows, &attr);
            // Query twice: the second answer comes from the memo.
            assert_eq!(cache.entropy(&attr).to_bits(), direct.to_bits(), "{name}");
            assert_eq!(
                cache.entropy(&attr).to_bits(),
                direct.to_bits(),
                "{name} (memoized)"
            );
        }
        assert_eq!(cache.entropy(&AttrName::entry("absent")), 0.0);
        assert!(cache.entropy(&AttrName::entry("varied")) > 0.0);
    }

    /// On every column of three generated training sets (127, 300 and 60
    /// rows: two, five and one presence words), the postings partition the
    /// presence bitset and each value's bits are exactly the rows that hold
    /// it, and a column keeps none only past `Postings::MAX_VALUES`
    /// distinct values.  Its histogram equals the one counted from its
    /// sorted ids, and its entropy that histogram's, bit for bit.
    #[test]
    fn postings_and_histograms_match_the_rows_of_generated_sets() {
        use crate::train::TrainingSet;
        use encore_corpus::genimage::{Population, PopulationOptions};
        use encore_model::{AppKind, Postings, ValueId};
        let (mut with, mut without) = (0, 0);
        for (app, n, seed) in [
            (AppKind::Apache, 127, 1),
            (AppKind::Mysql, 300, 3),
            (AppKind::Php, 60, 3),
        ] {
            let pop = Population::training(app, &PopulationOptions::new(n, seed));
            let ts = TrainingSet::assemble(app, pop.images()).unwrap();
            let cache = ts.stats_cache();
            let store = cache.columns();
            for (i, attr) in cache.attributes().iter().enumerate() {
                let column = store.column(i);
                let mut ids: Vec<ValueId> = (0..n).filter_map(|r| column.value_id(r)).collect();
                ids.sort_unstable();
                let mut sorted: BTreeMap<&str, usize> = BTreeMap::new();
                for run in ids.chunk_by(|x, y| x == y) {
                    *sorted
                        .entry(store.interner().render_of(run[0]))
                        .or_insert(0) += run.len();
                }
                let distinct = ids.chunk_by(|x, y| x == y).count();
                match column.postings() {
                    Some(postings) => {
                        with += 1;
                        assert_eq!(postings.len(), distinct, "{attr}");
                        let mut union = vec![0u64; column.presence().len()];
                        for (id, bits) in postings.iter() {
                            for row in 0..n {
                                let set = (bits[row / 64] >> (row % 64)) & 1 == 1;
                                assert_eq!(
                                    set,
                                    column.value_id(row) == Some(id),
                                    "{attr} row {row}"
                                );
                            }
                            for (all, &word) in union.iter_mut().zip(bits) {
                                assert_eq!(*all & word, 0, "{attr}: a row in two postings");
                                *all |= word;
                            }
                        }
                        assert_eq!(union, column.presence(), "{attr}");
                    }
                    None => {
                        without += 1;
                        assert!(distinct > Postings::MAX_VALUES, "{attr}: {distinct} values");
                    }
                }
                assert_eq!(store.value_histogram(i), sorted, "{attr}");
                assert_eq!(
                    cache.entropy_at(i).to_bits(),
                    entropy(sorted.into_values()).to_bits(),
                    "{attr}"
                );
            }
        }
        assert!(
            with > 0 && without > 0,
            "{with} columns with postings, {without} without"
        );
    }

    #[test]
    fn memo_is_consistent_under_concurrent_readers() {
        let rows = rows();
        let cache = cache(&rows, &TypeMap::new());
        let names = ["varied", "fixed", "thirds", "early", "late", "absent"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for name in names {
                        let attr = AttrName::entry(name);
                        assert_eq!(cache.entropy(&attr), row_entropy(&rows, &attr));
                    }
                });
            }
        });
    }

    #[test]
    fn types_resolved_once_match_type_map() {
        let mut tm = TypeMap::new();
        tm.set(AttrName::entry("varied"), SemType::FilePath);
        let cache = cache(&rows(), &tm);
        assert_eq!(cache.type_of(&AttrName::entry("varied")), SemType::FilePath);
        // Unstored attributes fall back to the TypeMap's own fallback rules.
        assert_eq!(
            cache.type_of(&AttrName::entry("fixed").augmented("owner")),
            tm.type_of(&AttrName::entry("fixed").augmented("owner"))
        );
    }

    #[test]
    fn attributes_are_sorted_and_complete() {
        let cache = cache(&rows(), &TypeMap::new());
        let names: Vec<String> = cache.attributes().iter().map(|a| a.to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn type_buckets_partition_sorted_attributes() {
        let mut tm = TypeMap::new();
        tm.set(AttrName::entry("varied"), SemType::FilePath);
        let cache = cache(&rows(), &tm);
        let mut seen = vec![false; cache.attributes().len()];
        for ty in SemType::PRIORITY {
            let bucket = cache.type_bucket(ty);
            assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "{ty}: not ascending"
            );
            for &i in bucket {
                assert_eq!(cache.type_at(i), ty);
                assert_eq!(cache.type_of(&cache.attributes()[i]), ty);
                assert!(!seen[i], "attribute {i} in two buckets");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every attribute lands in a bucket");
    }

    #[test]
    fn co_occurrence_follows_presence() {
        let cache = cache(&rows(), &TypeMap::new());
        let index = |name: &str| cache.attr_index(&AttrName::entry(name)).unwrap();
        let (varied, early, late) = (index("varied"), index("early"), index("late"));
        assert!(cache.co_occurs(varied, early));
        assert!(cache.co_occurs(varied, late));
        // `early` fills rows 0..6, `late` rows 6..12 — never together.
        assert!(!cache.co_occurs(early, late));
        assert!(cache.has_attribute(&AttrName::entry("varied")));
        assert!(!cache.has_attribute(&AttrName::entry("absent")));
    }
}
