//! Relation validators (§5.1: "each correlation is associated with a
//! validation method that determines whether the correlation holds").
//!
//! A validator evaluates one concrete relation instance against one system —
//! its assembled [`Row`] and, for environment-dependent relations, its
//! [`SystemImage`].  The tri-state result distinguishes *inapplicable*
//! systems (an involved entry absent — the rule is skipped, §6) from actual
//! validity.

use crate::stats::StatsCache;
use crate::template::Relation;
use encore_model::{AttrName, Column, ColumnStore, ConfigValue, Interner, Postings, Row, ValueId};
use encore_sysimage::SystemImage;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Evaluation of a relation instance on one system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// Both entries present and the relation holds.
    Holds,
    /// Both entries present and the relation is violated.
    Violated,
    /// Some involved entry is absent — skip this system.
    NotApplicable,
}

impl Applicability {
    fn from_bool(b: bool) -> Applicability {
        if b {
            Applicability::Holds
        } else {
            Applicability::Violated
        }
    }
}

/// Context handed to validators: the assembled row plus (optionally) the
/// raw system image for environment-dependent relations.
#[derive(Debug, Clone, Copy)]
pub struct SystemView<'a> {
    /// The assembled attribute row.
    pub row: &'a Row,
    /// The system image; `None` when only the row is available.
    pub image: Option<&'a SystemImage>,
}

impl<'a> SystemView<'a> {
    /// View over a row with its image.
    pub fn new(row: &'a Row, image: &'a SystemImage) -> SystemView<'a> {
        SystemView {
            row,
            image: Some(image),
        }
    }

    /// View over a bare row.
    pub fn row_only(row: &'a Row) -> SystemView<'a> {
        SystemView { row, image: None }
    }

    fn value(&self, attr: &AttrName) -> Option<&'a ConfigValue> {
        self.row.get(attr).filter(|v| !v.is_absent())
    }
}

/// Evaluate `relation(a, b)` on one system.
pub fn evaluate(
    relation: Relation,
    a: &AttrName,
    b: &AttrName,
    view: SystemView<'_>,
) -> Applicability {
    let (va, vb) = match (view.value(a), view.value(b)) {
        (Some(x), Some(y)) => (x, y),
        _ => return Applicability::NotApplicable,
    };
    match relation {
        Relation::MemberEq => member_eq(va, b, view),
        Relation::Owns => {
            let owner = view.value(&a.augmented("owner")).map(ConfigValue::rendered);
            owns(va, vb, owner.as_deref(), view.image)
        }
        _ => decide(relation, va, vb, view.image),
    }
}

/// Decide `relation` from its two present values and, for the
/// environment-backed relations, the system image.  This is the one
/// definition of each relation's semantics: the row evaluator
/// ([`evaluate`], used by detection) and the columnar [`PairEvaluator`]
/// (used by inference) both call it.  `MemberEq` and `Owns` need more of
/// the system than two values (the b-entry family, the `a.owner` cell), so
/// their callers decide them and here they are not applicable.
fn decide(
    relation: Relation,
    va: &ConfigValue,
    vb: &ConfigValue,
    image: Option<&SystemImage>,
) -> Applicability {
    match relation {
        Relation::Equal => Applicability::from_bool(va.rendered() == vb.rendered()),
        // Association-rule semantics: the implication is only *exercised*
        // when the antecedent fires.  Counting false antecedents as "holds"
        // would admit vacuous rules between any two mostly-off booleans.
        Relation::ExtBoolImplies => match (va.as_bool(), vb.as_bool()) {
            (Some(false), _) => Applicability::NotApplicable,
            (Some(true), Some(y)) => Applicability::from_bool(y),
            _ => Applicability::NotApplicable,
        },
        Relation::SubnetOf => subnet_of(va, vb),
        Relation::ConcatPath => concat_path(va, vb, image),
        Relation::SubstringOf => match (va.as_str(), vb.as_str()) {
            (Some(x), Some(y)) => Applicability::from_bool(!x.is_empty() && y.contains(x)),
            _ => Applicability::NotApplicable,
        },
        Relation::InGroup => in_group(va, vb, image),
        Relation::NotAccessible => not_accessible(va, vb, image),
        Relation::LessNum | Relation::LessSize => match (va.as_number(), vb.as_number()) {
            (Some(x), Some(y)) => Applicability::from_bool(x < y),
            _ => Applicability::NotApplicable,
        },
        Relation::MemberEq | Relation::Owns => Applicability::NotApplicable,
    }
}

/// `[A] =~ [B]`: A's value equals *some* instance of the B entry family.
///
/// Multi-occurrence entries are flattened with `#N` markers
/// (`LoadModule#3/arg1`); the family of `B` is every attribute sharing B's
/// base name with the occurrence index stripped.
fn member_eq(va: &ConfigValue, b: &AttrName, view: SystemView<'_>) -> Applicability {
    let family = occurrence_parts(b.base());
    let target = va.rendered();
    let mut seen_any = false;
    for (attr, value) in view.row.iter() {
        if attr.suffix() == b.suffix()
            && !value.is_absent()
            && same_parts(occurrence_parts(attr.base()), family)
        {
            seen_any = true;
            if value.rendered() == target {
                return Applicability::Holds;
            }
        }
    }
    if seen_any {
        Applicability::Violated
    } else {
        Applicability::NotApplicable
    }
}

/// Strip the `#N` occurrence marker from a flattened entry name.
pub(crate) fn strip_occurrence(base: &str) -> String {
    let (head, tail) = occurrence_parts(base);
    [head, tail].concat()
}

/// [`strip_occurrence`] as the two borrowed pieces it concatenates: the
/// name before the `#`, and the rest from the `/` that ends the marker.
fn occurrence_parts(base: &str) -> (&str, &str) {
    match base.split_once('#') {
        Some((head, marked)) => match marked.find('/') {
            Some(j) => (head, &marked[j..]),
            None => (head, ""),
        },
        None => (base, ""),
    }
}

/// Whether two [`occurrence_parts`] concatenate to the same name, compared
/// without building either.
fn same_parts((a_head, a_tail): (&str, &str), (b_head, b_tail): (&str, &str)) -> bool {
    a_head.len() + a_tail.len() == b_head.len() + b_tail.len()
        && a_head
            .bytes()
            .chain(a_tail.bytes())
            .eq(b_head.bytes().chain(b_tail.bytes()))
}

/// Canonicalize an entry name for *name-novelty* checks: occurrence markers
/// are stripped and section arguments are wildcarded
/// (`Directory:/srv/www|AllowOverride` → `Directory:*|AllowOverride`).
/// Without this, every unseen section path would flood the unknown-entry
/// check — the Apache false-warning source the paper describes in §7.1.2,
/// scoped here to genuinely novel section/entry *combinations*.  A name
/// with no `#`, `|` or `:` is its own canonical form and is lent back.
pub(crate) fn canonical_entry_name(base: &str) -> Cow<'_, str> {
    if !base.contains(['#', '|', ':']) {
        return Cow::Borrowed(base);
    }
    let stripped = strip_occurrence(base);
    let canonical = stripped
        .split('|')
        .map(|segment| match segment.split_once(':') {
            Some((name, _arg)) => format!("{name}:*"),
            None => segment.to_string(),
        })
        .collect::<Vec<_>>()
        .join("|");
    Cow::Owned(canonical)
}

fn subnet_of(va: &ConfigValue, vb: &ConfigValue) -> Applicability {
    let (a_text, b_text) = match (va.as_str(), vb.as_str()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Applicability::NotApplicable,
    };
    // `B` may carry a `/len` CIDR suffix; default to /24 for IPv4.
    let (b_addr, prefix_len) = match b_text.split_once('/') {
        Some((addr, len)) => match len.parse::<u32>() {
            Ok(l) => (addr, l),
            Err(_) => return Applicability::NotApplicable,
        },
        None => (b_text, 24),
    };
    let parse4 = |s: &str| -> Option<u32> {
        let octets: Vec<u32> = s
            .split('.')
            .map(|o| o.parse().ok())
            .collect::<Option<_>>()?;
        if octets.len() == 4 && octets.iter().all(|&o| o < 256) {
            Some((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3])
        } else {
            None
        }
    };
    match (parse4(a_text), parse4(b_addr)) {
        (Some(a4), Some(b4)) if prefix_len <= 32 => {
            let mask = if prefix_len == 0 {
                0
            } else {
                u32::MAX << (32 - prefix_len)
            };
            Applicability::from_bool((a4 & mask) == (b4 & mask))
        }
        _ => Applicability::NotApplicable,
    }
}

fn concat_path(va: &ConfigValue, vb: &ConfigValue, image: Option<&SystemImage>) -> Applicability {
    match (image, joined_path(va, vb)) {
        (Some(image), Some(full)) => Applicability::from_bool(image.vfs().exists(&full)),
        _ => Applicability::NotApplicable,
    }
}

/// The path `+` probes: A's directory joined to B's fragment by one `/`,
/// or `None` unless both values are text.
fn joined_path(va: &ConfigValue, vb: &ConfigValue) -> Option<String> {
    let (dir, frag) = (va.as_str()?, vb.as_str()?);
    Some(format!(
        "{}/{}",
        dir.trim_end_matches('/'),
        frag.trim_start_matches('/')
    ))
}

fn in_group(va: &ConfigValue, vb: &ConfigValue, image: Option<&SystemImage>) -> Applicability {
    let image = match image {
        Some(i) => i,
        None => return Applicability::NotApplicable,
    };
    match (va.as_str(), vb.as_str()) {
        (Some(user), Some(group)) => {
            Applicability::from_bool(image.accounts().is_member(user, group))
        }
        _ => Applicability::NotApplicable,
    }
}

fn not_accessible(
    va: &ConfigValue,
    vb: &ConfigValue,
    image: Option<&SystemImage>,
) -> Applicability {
    let image = match image {
        Some(i) => i,
        None => return Applicability::NotApplicable,
    };
    let (path, user) = match (va.as_str(), vb.as_str()) {
        (Some(p), Some(u)) => (p, u),
        _ => return Applicability::NotApplicable,
    };
    // One lookup: a path the image lacks is not applicable, and an existing
    // one asks about group membership only if `user` is not its owner.
    match image.vfs().metadata(path) {
        Some(meta) => Applicability::from_bool(
            !meta.readable_by(user, |group| image.accounts().is_member(user, group)),
        ),
        None => Applicability::NotApplicable,
    }
}

/// `[A] => [B]`: the user named by B owns the path named by A.
///
/// `owner` is the system's `A.owner` augmented cell (always present in
/// training rows); when the system has one, it decides.  Otherwise the
/// live VFS metadata does.
fn owns(
    va: &ConfigValue,
    vb: &ConfigValue,
    owner: Option<&str>,
    image: Option<&SystemImage>,
) -> Applicability {
    let Some(user) = vb.as_str() else {
        return Applicability::NotApplicable;
    };
    if let Some(owner) = owner {
        return Applicability::from_bool(owner == user);
    }
    let (Some(image), Some(path)) = (image, va.as_str()) else {
        return Applicability::NotApplicable;
    };
    match image.vfs().metadata(path) {
        Some(meta) => Applicability::from_bool(meta.owner == user),
        None => Applicability::NotApplicable,
    }
}

/// The one `u64` key of an interned `(a value, b value)` id pair.
fn id_pair(va: ValueId, vb: ValueId) -> u64 {
    (u64::from(va.0) << 32) | u64::from(vb.0)
}

/// Hasher for the `u64` keys of [`IdMap`]: one multiply, folded so that the
/// low bits the table indexes by depend on both halves of the key.  The
/// keys are dense ids, so the default SipHash would only add cost.  Bytes
/// are folded in one at a time, so a key written in pieces hashes as the
/// pieces joined would: `infer`'s display classes hash a name's display
/// form that way without rendering it.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A memo keyed by dense ids packed into one `u64`.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// How the pairs of one A attribute are decided over the columns: the
/// row-independent work of each relation (render classes, the `.owner`
/// column, the `=~` family, joined paths) is resolved once.  A relation
/// decided from the two values alone is decided once per distinct value
/// pair when the two columns' [`Postings`] are small enough; the others
/// read something of each row beyond its two values.
enum PairKind<'c> {
    /// `Equal`, `->`, `SubnetOf`, `SubstringOf`, `LessNum` and `LessSize`:
    /// decided from the two values alone, by [`value_verdict`], either once
    /// per distinct value pair from the postings or once per common row.
    ByValue(Relation),
    /// `MemberEq`: a row's verdict depends on A's value and B's family, not
    /// on which member B is.  For each family met so far, keyed by its first
    /// member's index, the rows where A equals some present member: built
    /// once per family and shared by every partner in it.
    MemberEq { holds: IdMap<Vec<u64>> },
    /// `Owns`: the `a.owner` augmented column, if the dataset has one.
    Owns { owner: Option<&'c Column> },
    /// `ConcatPath`: the joined path of each distinct id pair of the pair
    /// being tallied (`None` when a value is not text), built once; only
    /// the probe of each row's own VFS stays per row.
    ConcatPath { paths: IdMap<Option<String>> },
    /// `InGroup` and `NotAccessible`, decided per row from the two interned
    /// values and the row's own image.
    Image(Relation),
}

/// Columnar validator for the pairs of one A attribute: scans each pair's
/// presence intersection one 64-row word at a time, with all
/// row-independent work hoisted out of the row loop, or intersects the
/// two columns' value postings.  Its memos live for one pair (the joined
/// paths) or for the A attribute (the `=~` family rows).  For every row it
/// reproduces [`evaluate`] exactly — same helpers, same gating, same
/// tri-state — so the tallies are bit-identical to the row-major path
/// (`columnar_tally_matches_the_row_verdict` and
/// `memoized_tallies_match_the_summed_row_verdicts` pin this per
/// relation).
pub(crate) struct PairEvaluator<'c> {
    cache: &'c StatsCache,
    col_a: &'c Column,
    kind: PairKind<'c>,
    /// Pairs tallied from value postings so far.
    by_value: u64,
}

impl<'c> PairEvaluator<'c> {
    /// Resolve the evaluation strategy for the pairs whose A slot is the
    /// attribute at sorted index `a_index` of `cache`.
    pub(crate) fn new(
        relation: Relation,
        cache: &'c StatsCache,
        a_index: usize,
    ) -> PairEvaluator<'c> {
        let store = cache.columns();
        let kind = match relation {
            Relation::Equal
            | Relation::ExtBoolImplies
            | Relation::SubnetOf
            | Relation::SubstringOf
            | Relation::LessNum
            | Relation::LessSize => PairKind::ByValue(relation),
            Relation::MemberEq => PairKind::MemberEq {
                holds: IdMap::default(),
            },
            Relation::Owns => PairKind::Owns {
                owner: cache
                    .attr_index(&cache.attributes()[a_index].augmented("owner"))
                    .map(|j| store.column(j)),
            },
            Relation::ConcatPath => PairKind::ConcatPath {
                paths: IdMap::default(),
            },
            Relation::InGroup | Relation::NotAccessible => PairKind::Image(relation),
        };
        PairEvaluator {
            cache,
            col_a: store.column(a_index),
            kind,
            by_value: 0,
        }
    }

    /// How many of the pairs tallied so far were tallied from value
    /// postings.
    pub(crate) fn pairs_by_value(&self) -> u64 {
        self.by_value
    }

    /// Tally `(holds, applicable)` of the pair with the attribute at sorted
    /// index `b_index` over every training system, given its images in row
    /// order — the counts [`crate::infer`] turns into a candidate's support
    /// and confidence.
    pub(crate) fn tally(&mut self, b_index: usize, images: &[SystemImage]) -> (usize, usize) {
        let store = self.cache.columns();
        let interner = store.interner();
        let (col_a, col_b) = (self.col_a, store.column(b_index));
        match &mut self.kind {
            PairKind::ByValue(relation) => {
                let relation = *relation;
                let verdict = |va, vb| value_verdict(relation, interner, va, vb);
                match small_postings(col_a, col_b) {
                    Some((pa, pb)) => {
                        self.by_value += 1;
                        tally_postings(pa, pb, verdict)
                    }
                    None => tally_rows(col_a, col_b, |_, va, vb| verdict(va, vb)),
                }
            }
            PairKind::MemberEq { holds } => {
                let family = self.cache.family(b_index);
                let holds = holds
                    .entry(family[0] as u64)
                    .or_insert_with(|| family_holds(store, col_a, family));
                // B belongs to its own family, so every row where A and B are
                // both present has a present member: each applies, and holds
                // where the family's rows say so.
                let (mut held, mut applicable) = (0, 0);
                for ((&h, &a), &b) in holds.iter().zip(col_a.presence()).zip(col_b.presence()) {
                    held += (h & b).count_ones() as usize;
                    applicable += (a & b).count_ones() as usize;
                }
                (held, applicable)
            }
            PairKind::Owns { owner } => {
                let owner = *owner;
                tally_rows(col_a, col_b, |i, va, vb| {
                    // A present `.owner` cell decides, an absent one falls
                    // through to the VFS, as in the row path.
                    let owner = owner
                        .and_then(|column| column.value_id(i))
                        .map(|id| interner.render_of(id));
                    owns(
                        interner.value(va),
                        interner.value(vb),
                        owner,
                        Some(&images[i]),
                    )
                })
            }
            PairKind::ConcatPath { paths } => {
                paths.clear();
                tally_rows(col_a, col_b, |i, va, vb| {
                    let path = paths
                        .entry(id_pair(va, vb))
                        .or_insert_with(|| joined_path(interner.value(va), interner.value(vb)));
                    match path {
                        Some(path) => Applicability::from_bool(images[i].vfs().exists(path)),
                        None => Applicability::NotApplicable,
                    }
                })
            }
            PairKind::Image(relation) => {
                let relation = *relation;
                tally_rows(col_a, col_b, |i, va, vb| {
                    decide(
                        relation,
                        interner.value(va),
                        interner.value(vb),
                        Some(&images[i]),
                    )
                })
            }
        }
    }
}

/// The verdict of a relation decided from its two values alone: `Equal`
/// compares interned render classes (≡ comparing rendered strings), and
/// every other one is [`decide`] without an image.
fn value_verdict(
    relation: Relation,
    interner: &Interner,
    va: ValueId,
    vb: ValueId,
) -> Applicability {
    match relation {
        Relation::Equal => {
            Applicability::from_bool(interner.render_class(va) == interner.render_class(vb))
        }
        _ => decide(relation, interner.value(va), interner.value(vb), None),
    }
}

/// The two columns' value postings, when intersecting them costs no more
/// word operations than visiting their common rows: `dA × dB × words`
/// is at most the number of rows where both are present.
fn small_postings<'c>(
    col_a: &'c Column,
    col_b: &'c Column,
) -> Option<(&'c Postings, &'c Postings)> {
    let (pa, pb) = (col_a.postings()?, col_b.postings()?);
    let common = rows_in_both(col_a.presence(), col_b.presence());
    (pa.len() * pb.len() * col_a.presence().len() <= common).then_some((pa, pb))
}

/// The number of rows set in both bitsets.
fn rows_in_both(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Add `rows` rows of one verdict to a `(holds, applicable)` tally.
fn count(tally: &mut (usize, usize), verdict: Applicability, rows: usize) {
    match verdict {
        Applicability::Holds => {
            tally.0 += rows;
            tally.1 += rows;
        }
        Applicability::Violated => tally.1 += rows,
        Applicability::NotApplicable => {}
    }
}

/// Tally `(holds, applicable)` of `verdict(a value, b value)` from the
/// postings of the two columns: each distinct value pair that shares a
/// row is decided once and counts the rows it shares.
fn tally_postings(
    pa: &Postings,
    pb: &Postings,
    mut verdict: impl FnMut(ValueId, ValueId) -> Applicability,
) -> (usize, usize) {
    let mut tally = (0, 0);
    for (va, rows_a) in pa.iter() {
        for (vb, rows_b) in pb.iter() {
            let rows = rows_in_both(rows_a, rows_b);
            if rows > 0 {
                count(&mut tally, verdict(va, vb), rows);
            }
        }
    }
    tally
}

/// Call `row` with every row whose bit is set in both presence bitsets, in
/// ascending order.
fn for_each_common_row(a: &[u64], b: &[u64], mut row: impl FnMut(usize)) {
    for (w, (wa, wb)) in a.iter().zip(b).enumerate() {
        let mut both = wa & wb;
        while both != 0 {
            row(w * 64 + both.trailing_zeros() as usize);
            both &= both - 1;
        }
    }
}

/// Tally `(holds, applicable)` of `verdict(row, a value, b value)` over the
/// rows where both columns are present — the same gate [`evaluate`]
/// applies before dispatching any relation.
fn tally_rows(
    col_a: &Column,
    col_b: &Column,
    mut verdict: impl FnMut(usize, ValueId, ValueId) -> Applicability,
) -> (usize, usize) {
    let mut tally = (0, 0);
    for_each_common_row(col_a.presence(), col_b.presence(), |i| {
        let va = col_a.value_id(i).expect("presence bit set for a");
        let vb = col_b.value_id(i).expect("presence bit set for b");
        count(&mut tally, verdict(i, va, vb), 1);
    });
    tally
}

/// The `=~` rows of A against one b-entry family: bit `i` is set iff A is
/// present in row `i` and some member of `family` is present there with a
/// value that renders as A's does.
fn family_holds(store: &ColumnStore, col_a: &Column, family: &[usize]) -> Vec<u64> {
    let interner = store.interner();
    let mut holds = vec![0u64; col_a.presence().len()];
    for &j in family {
        let member = store.column(j);
        for_each_common_row(col_a.presence(), member.presence(), |i| {
            let (va, vm) = (col_a.value_id(i), member.value_id(i));
            let same = interner.render_class(va.expect("presence bit set for a"))
                == interner.render_class(vm.expect("presence bit set for the member"));
            holds[i / 64] |= u64::from(same) << (i % 64);
        });
    }
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeMap;
    use encore_model::SizeUnit;

    fn image() -> SystemImage {
        SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .user("nobody", 99, &["nobody"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .dir("/etc/httpd", "root", "root", 0o755)
            .file("/etc/httpd/modules/mod_mime.so", "root", "root", 0o755, "")
            .build()
    }

    fn row(image: &SystemImage) -> Row {
        let mut r = Row::new(image.id());
        r.set(
            AttrName::entry("datadir"),
            ConfigValue::path("/var/lib/mysql"),
        );
        r.set(
            AttrName::entry("datadir").augmented("owner"),
            ConfigValue::str("mysql"),
        );
        r.set(AttrName::entry("user"), ConfigValue::str("mysql"));
        r.set(
            AttrName::entry("ServerRoot"),
            ConfigValue::path("/etc/httpd"),
        );
        r.set(
            AttrName::entry("LoadModule#0/arg2"),
            ConfigValue::path("modules/mod_mime.so"),
        );
        r.set(
            AttrName::entry("upload_max_filesize"),
            ConfigValue::size(2, SizeUnit::M),
        );
        r.set(
            AttrName::entry("post_max_size"),
            ConfigValue::size(8, SizeUnit::M),
        );
        r
    }

    #[test]
    fn owns_via_augmented_attribute() {
        let img = image();
        let r = row(&img);
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::Owns,
                &AttrName::entry("datadir"),
                &AttrName::entry("user"),
                view
            ),
            Applicability::Holds
        );
    }

    #[test]
    fn owns_violated_when_owner_differs() {
        let img = image();
        let mut r = row(&img);
        r.set(
            AttrName::entry("datadir").augmented("owner"),
            ConfigValue::str("root"),
        );
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::Owns,
                &AttrName::entry("datadir"),
                &AttrName::entry("user"),
                view
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn absent_entry_is_not_applicable() {
        let img = image();
        let r = row(&img);
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::Owns,
                &AttrName::entry("missing"),
                &AttrName::entry("user"),
                view
            ),
            Applicability::NotApplicable
        );
    }

    #[test]
    fn concat_path_checks_vfs() {
        let img = image();
        let r = row(&img);
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::ConcatPath,
                &AttrName::entry("ServerRoot"),
                &AttrName::entry("LoadModule#0/arg2"),
                view
            ),
            Applicability::Holds
        );
        // break the fragment
        let mut r2 = row(&img);
        r2.set(
            AttrName::entry("LoadModule#0/arg2"),
            ConfigValue::path("modules/nope.so"),
        );
        let view2 = SystemView::new(&r2, &img);
        assert_eq!(
            evaluate(
                Relation::ConcatPath,
                &AttrName::entry("ServerRoot"),
                &AttrName::entry("LoadModule#0/arg2"),
                view2
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn size_ordering() {
        let img = image();
        let r = row(&img);
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::LessSize,
                &AttrName::entry("upload_max_filesize"),
                &AttrName::entry("post_max_size"),
                view
            ),
            Applicability::Holds
        );
        assert_eq!(
            evaluate(
                Relation::LessSize,
                &AttrName::entry("post_max_size"),
                &AttrName::entry("upload_max_filesize"),
                view
            ),
            Applicability::Violated
        );
    }

    /// A log buffer of 16777215T or 16777216T (2^64 bytes, past
    /// `u64::MAX`) is larger than a 128M buffer pool and a 48M log file,
    /// so both `<` rules are violated; a byte count that wrapped to 0
    /// would have held.
    #[test]
    fn size_ordering_past_u64_bytes() {
        let size = |text: &str| ConfigValue::parse_size(text).expect("size");
        for buffer in ["16777215T", "16777216T"] {
            for bound in ["128M", "48M"] {
                assert_eq!(
                    decide(Relation::LessSize, &size(buffer), &size(bound), None),
                    Applicability::Violated,
                    "{buffer} < {bound}"
                );
                assert_eq!(
                    decide(Relation::LessSize, &size(bound), &size(buffer), None),
                    Applicability::Holds,
                    "{bound} < {buffer}"
                );
            }
        }
    }

    #[test]
    fn in_group_membership() {
        let img = image();
        let mut r = row(&img);
        r.set(AttrName::entry("group"), ConfigValue::str("mysql"));
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::InGroup,
                &AttrName::entry("user"),
                &AttrName::entry("group"),
                view
            ),
            Applicability::Holds
        );
    }

    #[test]
    fn not_accessible_for_other_users() {
        let img = image();
        let mut r = row(&img);
        r.set(AttrName::entry("log_user"), ConfigValue::str("nobody"));
        let view = SystemView::new(&r, &img);
        // /var/lib/mysql is 0700 mysql:mysql — nobody cannot read it.
        assert_eq!(
            evaluate(
                Relation::NotAccessible,
                &AttrName::entry("datadir"),
                &AttrName::entry("log_user"),
                view
            ),
            Applicability::Holds
        );
        // but mysql can, so the relation is violated for mysql.
        assert_eq!(
            evaluate(
                Relation::NotAccessible,
                &AttrName::entry("datadir"),
                &AttrName::entry("user"),
                view
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn subnet_matching() {
        let img = image();
        let mut r = row(&img);
        r.set(
            AttrName::entry("client"),
            ConfigValue::parse_ip("10.0.1.55").unwrap(),
        );
        r.set(AttrName::entry("allowed"), ConfigValue::str("10.0.1.0/24"));
        r.set(AttrName::entry("other"), ConfigValue::str("192.168.0.0/16"));
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::SubnetOf,
                &AttrName::entry("client"),
                &AttrName::entry("allowed"),
                view
            ),
            Applicability::Holds
        );
        assert_eq!(
            evaluate(
                Relation::SubnetOf,
                &AttrName::entry("client"),
                &AttrName::entry("other"),
                view
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn bool_implication() {
        let img = image();
        let mut r = row(&img);
        r.set(
            AttrName::entry("FollowSymLinks"),
            ConfigValue::boolean(false),
        );
        r.set(
            AttrName::entry("DocumentRoot").augmented("hasSymLink"),
            ConfigValue::boolean(false),
        );
        let view = SystemView::new(&r, &img);
        // A false antecedent never exercises the implication — the system
        // is not applicable (association-rule semantics).
        assert_eq!(
            evaluate(
                Relation::ExtBoolImplies,
                &AttrName::entry("FollowSymLinks"),
                &AttrName::entry("DocumentRoot").augmented("hasSymLink"),
                view
            ),
            Applicability::NotApplicable
        );
        // A true antecedent requires the consequent.
        r.set(
            AttrName::entry("FollowSymLinks"),
            ConfigValue::boolean(true),
        );
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::ExtBoolImplies,
                &AttrName::entry("FollowSymLinks"),
                &AttrName::entry("DocumentRoot").augmented("hasSymLink"),
                view
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn member_eq_over_occurrence_family() {
        let img = image();
        let mut r = row(&img);
        r.set(AttrName::entry("Listen#0"), ConfigValue::number(80.0));
        r.set(AttrName::entry("Listen#1"), ConfigValue::number(443.0));
        r.set(AttrName::entry("ServerPort"), ConfigValue::number(443.0));
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::MemberEq,
                &AttrName::entry("ServerPort"),
                &AttrName::entry("Listen#0"),
                view
            ),
            Applicability::Holds
        );
        r.set(AttrName::entry("ServerPort"), ConfigValue::number(8080.0));
        let view = SystemView::new(&r, &img);
        assert_eq!(
            evaluate(
                Relation::MemberEq,
                &AttrName::entry("ServerPort"),
                &AttrName::entry("Listen#0"),
                view
            ),
            Applicability::Violated
        );
    }

    #[test]
    fn strip_occurrence_variants() {
        assert_eq!(strip_occurrence("LoadModule#3"), "LoadModule");
        assert_eq!(strip_occurrence("LoadModule#3/arg2"), "LoadModule/arg2");
        assert_eq!(strip_occurrence("Plain"), "Plain");
    }

    /// Every name of up to four characters over the marker alphabet.
    fn generated_names() -> Vec<String> {
        let mut names = vec![String::new()];
        let mut frontier = names.clone();
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|name| ['a', 'b', '#', '/', '1'].map(|c| format!("{name}{c}")))
                .collect();
            names.extend(frontier.iter().cloned());
        }
        names
    }

    #[test]
    fn same_parts_equals_comparing_stripped_names() {
        let names = generated_names();
        assert_eq!(names.len(), 781);
        for a in &names {
            for b in &names {
                assert_eq!(
                    same_parts(occurrence_parts(a), occurrence_parts(b)),
                    strip_occurrence(a) == strip_occurrence(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_names_borrow_exactly_the_plain_names() {
        let cases = [
            ("datadir", "datadir"),
            ("session.use_cookies", "session.use_cookies"),
            ("dataadir#2", "dataadir"),
            ("LoadModule#3/arg2", "LoadModule/arg2"),
            (
                "Directory:/var/www/html10|AllowOverride",
                "Directory:*|AllowOverride",
            ),
            ("IfModule:mod_ssl.c|Listen#1", "IfModule:*|Listen"),
        ];
        for (name, canonical) in cases {
            let got = canonical_entry_name(name);
            assert_eq!(got, canonical);
            assert_eq!(matches!(got, Cow::Borrowed(_)), name == canonical, "{name}");
        }
    }

    /// Well-typed, applicable sample values for each relation (no augmented
    /// attributes, so `Owns` cannot take its row-only fallback).
    fn sample_values(relation: Relation) -> (ConfigValue, ConfigValue) {
        use crate::template::Relation as R;
        match relation {
            R::Equal | R::MemberEq => (ConfigValue::str("v"), ConfigValue::str("v")),
            R::ExtBoolImplies => (ConfigValue::boolean(true), ConfigValue::boolean(true)),
            R::SubnetOf => (
                ConfigValue::str("10.0.0.5"),
                ConfigValue::str("10.0.0.0/24"),
            ),
            R::ConcatPath => (
                ConfigValue::path("/etc/httpd"),
                ConfigValue::str("modules/mod_mime.so"),
            ),
            R::SubstringOf => (ConfigValue::str("ab"), ConfigValue::str("abc")),
            R::InGroup => (ConfigValue::str("mysql"), ConfigValue::str("mysql")),
            R::NotAccessible | R::Owns => (
                ConfigValue::path("/var/lib/mysql"),
                ConfigValue::str("mysql"),
            ),
            R::LessNum => (ConfigValue::number(1.0), ConfigValue::number(2.0)),
            R::LessSize => (
                ConfigValue::size(1, SizeUnit::M),
                ConfigValue::size(2, SizeUnit::M),
            ),
        }
    }

    /// Exhaustiveness pin: a relation's declared environment dependence must
    /// match its validator.  With both entries present and well-typed but no
    /// system image, env-dependent validators must abstain (NotApplicable)
    /// while row-level validators must decide (Holds/Violated).  If a new
    /// relation variant is added without updating `Relation::signature`,
    /// `sample_values` fails to compile first.
    #[test]
    fn signature_env_dependence_matches_validators() {
        for relation in Relation::ALL {
            let (va, vb) = sample_values(relation);
            let mut r = Row::new("pin");
            let a = AttrName::entry("alpha");
            let b = AttrName::entry("beta");
            r.set(a.clone(), va);
            r.set(b.clone(), vb);
            let outcome = evaluate(relation, &a, &b, SystemView::row_only(&r));
            if relation.signature().env_dependent {
                assert_eq!(
                    outcome,
                    Applicability::NotApplicable,
                    "{relation:?} declared env-dependent but decided without an image"
                );
            } else {
                assert_ne!(
                    outcome,
                    Applicability::NotApplicable,
                    "{relation:?} declared row-level but abstained on present values"
                );
            }
        }
    }

    /// Detection evaluates rules row by row ([`evaluate`]); inference
    /// tallies them over columns ([`PairEvaluator`]).  Both must give every
    /// relation the same verdict, with and without an `alpha.owner` cell
    /// (which decides `Owns` in place of the VFS).
    #[test]
    fn columnar_tally_matches_the_row_verdict() {
        let img = image();
        let (a, b) = (AttrName::entry("alpha"), AttrName::entry("beta"));
        for relation in Relation::ALL {
            for owner in [None, Some("mysql"), Some("root")] {
                let (va, vb) = sample_values(relation);
                let mut r = Row::new("pin");
                r.set(a.clone(), va);
                r.set(b.clone(), vb);
                if let Some(owner) = owner {
                    r.set(a.augmented("owner"), ConfigValue::str(owner));
                }
                let expected = match evaluate(relation, &a, &b, SystemView::new(&r, &img)) {
                    Applicability::Holds => (1, 1),
                    Applicability::Violated => (0, 1),
                    Applicability::NotApplicable => (0, 0),
                };
                let cache = StatsCache::from_rows(&[&r], &TypeMap::new());
                let (ai, bi) = (cache.attr_index(&a).unwrap(), cache.attr_index(&b).unwrap());
                assert_eq!(
                    PairEvaluator::new(relation, &cache, ai).tally(bi, std::slice::from_ref(&img)),
                    expected,
                    "{relation:?} with owner cell {owner:?}"
                );
            }
        }
    }

    /// Row `i`'s image: its modules, the datadir's mode and `nobody`'s
    /// groups all vary with `i`, so an environment-backed verdict can
    /// differ between two rows with the same values.
    fn varied_image(i: usize) -> SystemImage {
        let nobody_groups: &[&str] = if i.is_multiple_of(2) {
            &["nobody"]
        } else {
            &["nobody", "mysql"]
        };
        SystemImage::builder(format!("img-{i}"))
            .user("mysql", 27, &["mysql"])
            .user("nobody", 99, nobody_groups)
            .dir("/var/lib/mysql", "mysql", "mysql", [0o700, 0o750][i % 2])
            .dir("/etc/httpd", "root", "root", 0o755)
            .file(
                &format!("/etc/httpd/modules/mod_{}.so", i % 3),
                "root",
                "root",
                0o755,
                "",
            )
            .build()
    }

    /// The values of case `k` for `relation`: applicable and inapplicable
    /// inputs, holding and violated ones.
    fn case_values(relation: Relation, k: usize) -> (ConfigValue, ConfigValue) {
        use crate::template::Relation as R;
        let pick = |options: &[&str], n: usize| options[n % options.len()].to_string();
        match relation {
            R::Equal | R::MemberEq => (
                ConfigValue::str(format!("v{}", k % 3)),
                ConfigValue::str(format!("v{}", k % 2)),
            ),
            R::ExtBoolImplies => (
                ConfigValue::boolean(k.is_multiple_of(2)),
                ConfigValue::boolean(k.is_multiple_of(3)),
            ),
            R::SubnetOf => (
                ConfigValue::str(pick(&["10.0.1.5", "10.0.2.5", "not-an-ip"], k)),
                ConfigValue::str(pick(&["10.0.1.0/24", "10.0.0.0/16", "10.0.2.9"], k / 2)),
            ),
            R::ConcatPath => (
                ConfigValue::path(pick(&["/etc/httpd", "/etc/httpd/"], k)),
                if k % 5 == 4 {
                    ConfigValue::number(1.0)
                } else {
                    ConfigValue::str(format!("modules/mod_{}.so", k % 3))
                },
            ),
            R::SubstringOf => (
                ConfigValue::str(pick(&["ab", "", "abc", "zz"], k)),
                ConfigValue::str(pick(&["xaby", "abc", "q"], k / 2)),
            ),
            R::InGroup => (
                ConfigValue::str(pick(&["mysql", "nobody", "ghost"], k)),
                ConfigValue::str(pick(&["mysql", "nobody"], k / 3)),
            ),
            R::NotAccessible | R::Owns => (
                ConfigValue::path(pick(&["/var/lib/mysql", "/etc/httpd", "/missing"], k)),
                ConfigValue::str(pick(&["mysql", "nobody", "root"], k / 2)),
            ),
            R::LessNum => (
                ConfigValue::number((k % 3) as f64),
                ConfigValue::number(1.0),
            ),
            R::LessSize => (
                ConfigValue::size((k % 3) as u64, SizeUnit::M),
                ConfigValue::size(1024, SizeUnit::K),
            ),
        }
    }

    /// Sum the row verdicts of [`evaluate`] into `(holds, applicable)`.
    fn summed_row_verdicts(
        relation: Relation,
        a: &AttrName,
        b: &AttrName,
        rows: &[Row],
        images: &[SystemImage],
    ) -> (usize, usize) {
        rows.iter()
            .zip(images)
            .fold((0, 0), |(holds, applicable), (row, image)| {
                match evaluate(relation, a, b, SystemView::new(row, image)) {
                    Applicability::Holds => (holds + 1, applicable + 1),
                    Applicability::Violated => (holds, applicable + 1),
                    Applicability::NotApplicable => (holds, applicable),
                }
            })
    }

    /// The memos decide each distinct value pair (or, for `=~`, each family)
    /// once and reuse the verdict on the other rows.  Over many rows — with
    /// values repeated, all distinct, and absent, an `alpha.owner` cell in
    /// some rows and a different image per row — every relation's tally
    /// must still equal the sum of its row verdicts.  `=~` tallies both
    /// members of the `beta#n` family with one evaluator, so the second is
    /// served from the family rows the first built.
    #[test]
    fn memoized_tallies_match_the_summed_row_verdicts() {
        const ROWS: usize = 70;
        let images: Vec<SystemImage> = (0..ROWS).map(varied_image).collect();
        let a = AttrName::entry("alpha");
        let family = [AttrName::entry("beta#0"), AttrName::entry("beta#1")];
        // The case row `i` reads: four cases over and over, every row its
        // own, or one case in every third row and its own in the others.
        let case_of = |pattern: &str, i: usize| match pattern {
            "repeated" => i % 4,
            "distinct" => i,
            _ if i.is_multiple_of(3) => 0,
            _ => i,
        };
        for relation in Relation::ALL {
            for pattern in ["repeated", "distinct", "mixed"] {
                let rows: Vec<Row> = (0..ROWS)
                    .map(|i| {
                        let k = case_of(pattern, i);
                        let (va, vb) = case_values(relation, k);
                        let mut row = Row::new(format!("s{i}"));
                        // Absent cells: no alpha cell in some rows, an
                        // absent value in others.
                        if i % 5 != 1 {
                            row.set(a.clone(), va);
                        }
                        let vb = if i % 7 == 2 { ConfigValue::Absent } else { vb };
                        row.set(family[0].clone(), vb);
                        if i % 4 != 3 {
                            row.set(family[1].clone(), case_values(relation, k + 1).1);
                        }
                        if i % 3 == 0 {
                            row.set(
                                a.augmented("owner"),
                                ConfigValue::str(["mysql", "root"][i % 2]),
                            );
                        }
                        row
                    })
                    .collect();
                let refs: Vec<&Row> = rows.iter().collect();
                let cache = StatsCache::from_rows(&refs, &TypeMap::new());
                let mut evaluator =
                    PairEvaluator::new(relation, &cache, cache.attr_index(&a).unwrap());
                let mut applicable = 0;
                for b in &family {
                    let expected = summed_row_verdicts(relation, &a, b, &rows, &images);
                    let got = evaluator.tally(cache.attr_index(b).unwrap(), &images);
                    assert_eq!(got, expected, "{relation:?} {pattern} {b}");
                    applicable += expected.1;
                }
                assert!(applicable > 0, "{relation:?} {pattern}: never applicable");
            }
        }
        // A value-only pair at the boundary of the postings rule: with
        // `dA × dB × words` equal to the common rows it is tallied from the
        // postings, and with one common row fewer, row by row.
        for relation in Relation::ALL {
            let Some((d_a, d_b, num_rows)) = boundary_shape(relation) else {
                continue;
            };
            let images: Vec<SystemImage> = (0..num_rows).map(varied_image).collect();
            let b = &family[0];
            for short in [false, true] {
                let rows: Vec<Row> = (0..num_rows)
                    .map(|i| {
                        // Every (x, y) pair, each as often as the others.
                        let (va, vb) = boundary_values(relation, i % d_a, i / d_a % d_b);
                        let mut row = Row::new(format!("s{i}"));
                        row.set(a.clone(), va);
                        if !(short && i == num_rows - 1) {
                            row.set(b.clone(), vb);
                        }
                        row
                    })
                    .collect();
                let refs: Vec<&Row> = rows.iter().collect();
                let cache = StatsCache::from_rows(&refs, &TypeMap::new());
                let (ai, bi) = (cache.attr_index(&a).unwrap(), cache.attr_index(b).unwrap());
                let (col_a, col_b) = (cache.columns().column(ai), cache.columns().column(bi));
                let (pa, pb) = (col_a.postings().unwrap(), col_b.postings().unwrap());
                let common = num_rows - usize::from(short);
                assert_eq!(
                    pa.len() * pb.len() * col_a.presence().len(),
                    num_rows,
                    "{relation:?}: dA × dB × words"
                );
                let mut evaluator = PairEvaluator::new(relation, &cache, ai);
                let expected = summed_row_verdicts(relation, &a, b, &rows, &images);
                assert_eq!(
                    evaluator.tally(bi, &images),
                    expected,
                    "{relation:?} with {common} common rows"
                );
                assert!(expected.1 > 0, "{relation:?}: never applicable");
                assert_eq!(
                    evaluator.pairs_by_value(),
                    u64::from(!short),
                    "{relation:?} with {common} common rows: the path taken"
                );
            }
        }
    }

    /// `(dA, dB, rows)` of a value-only relation's boundary pair: `dA × dB
    /// × words` is the number of rows.  `None` for the relations that read
    /// more than two values.
    fn boundary_shape(relation: Relation) -> Option<(usize, usize, usize)> {
        use crate::template::Relation as R;
        match relation {
            R::ExtBoolImplies => Some((2, 2, 4)),
            R::Equal | R::SubnetOf | R::SubstringOf | R::LessNum | R::LessSize => Some((5, 7, 70)),
            R::MemberEq | R::ConcatPath | R::InGroup | R::NotAccessible | R::Owns => None,
        }
    }

    /// The `x`-th A value and the `y`-th B value of a boundary pair.  `==`
    /// compares a string with a number, so equal values differ in id but
    /// render alike (`Str("10")` and `Number(10.0)`).
    fn boundary_values(relation: Relation, x: usize, y: usize) -> (ConfigValue, ConfigValue) {
        use crate::template::Relation as R;
        let pick = |options: &[&str], n: usize| ConfigValue::str(options[n]);
        match relation {
            R::Equal => (
                ConfigValue::str((10 + x).to_string()),
                ConfigValue::number((10 + y) as f64),
            ),
            R::ExtBoolImplies => (ConfigValue::boolean(x == 1), ConfigValue::boolean(y == 1)),
            R::SubnetOf => (
                pick(
                    &["10.0.1.5", "10.0.2.5", "not-an-ip", "10.1.0.1", "10.0.0.9"],
                    x,
                ),
                pick(
                    &[
                        "10.0.1.0/24",
                        "10.0.0.0/16",
                        "10.0.2.9",
                        "10.0.0.0/8",
                        "bad/x",
                        "10.0.2.0/24",
                        "10.1.0.0/16",
                    ],
                    y,
                ),
            ),
            R::SubstringOf => (
                pick(&["ab", "", "abc", "zz", "b"], x),
                pick(&["xaby", "abc", "q", "zzz", "b", "ab", "abcd"], y),
            ),
            R::LessNum => (
                ConfigValue::number(x as f64),
                ConfigValue::number(y as f64 - 1.0),
            ),
            R::LessSize => (
                ConfigValue::size(x as u64, SizeUnit::M),
                ConfigValue::size(512 * y as u64, SizeUnit::K),
            ),
            R::MemberEq | R::ConcatPath | R::InGroup | R::NotAccessible | R::Owns => {
                unreachable!("{relation:?} has no boundary pair")
            }
        }
    }

    /// The per-pair `=~` tally the family rows replaced: for each row where
    /// A and B are present, scan B's family for a member equal to A.
    fn member_eq_by_scan(cache: &StatsCache, ai: usize, bi: usize) -> (usize, usize) {
        let store = cache.columns();
        let interner = store.interner();
        let (col_a, col_b) = (store.column(ai), store.column(bi));
        tally_rows(col_a, col_b, |i, va, _| {
            let target = interner.render_class(va);
            let mut seen_any = false;
            for &j in cache.family(bi) {
                if let Some(member) = store.column(j).value_id(i) {
                    seen_any = true;
                    if interner.render_class(member) == target {
                        return Applicability::Holds;
                    }
                }
            }
            if seen_any {
                Applicability::Violated
            } else {
                Applicability::NotApplicable
            }
        })
    }

    /// Over every `=~` pair of the `train-wide` set (Apache, 127 images,
    /// seed 1), one evaluator per A attribute, reusing family rows across
    /// partners as inference does, tallies what the per-pair scan does.
    #[test]
    fn family_reuse_matches_the_per_pair_scan_on_train_wide() {
        use crate::eligibility::{is_same_type_generic, pair_considered, partner_indices};
        use crate::template::Template;
        use crate::train::TrainingSet;
        use encore_corpus::genimage::{Population, PopulationOptions};
        use encore_model::{AppKind, SemType};
        let pop = Population::training(AppKind::Apache, &PopulationOptions::new(127, 1));
        let ts = TrainingSet::assemble(AppKind::Apache, pop.images()).unwrap();
        let cache = ts.stats_cache();
        let template = Template::new(SemType::Str, Relation::MemberEq, SemType::Str);
        let generic = is_same_type_generic(&template);
        let all: Vec<usize> = (0..cache.attributes().len()).collect();
        let (mut pairs, mut reused) = (0, 0);
        for &ai in &all {
            let mut evaluator = PairEvaluator::new(Relation::MemberEq, cache, ai);
            let mut families = std::collections::HashSet::new();
            for &bi in partner_indices(cache, generic, &all, ai) {
                if !pair_considered(&template, generic, cache, ai, bi) {
                    continue;
                }
                pairs += 1;
                reused += usize::from(!families.insert(cache.family(bi)[0]));
                assert_eq!(
                    evaluator.tally(bi, ts.images()),
                    member_eq_by_scan(cache, ai, bi),
                    "{} =~ {}",
                    cache.attributes()[ai],
                    cache.attributes()[bi]
                );
            }
        }
        // The `=~` pair count of the Apache golden; most pairs reuse rows.
        assert_eq!(pairs, 4127);
        assert!(
            reused * 2 > pairs,
            "{reused} of {pairs} pairs reused family rows"
        );
    }

    /// `not_accessible` asks `Accounts::is_member` about the one group of
    /// the path it looked up; the check it replaced listed every group of
    /// the user.  On generated MySQL and Apache images, the two agree for
    /// every user (and root, and a stranger) against every path (and a
    /// missing one).  Two hand-built images add a group-readable path whose
    /// verdict turns on membership, which the generated ones may lack.
    #[test]
    fn not_accessible_matches_the_group_list_check() {
        use encore_corpus::genimage::{Population, PopulationOptions};
        use encore_model::AppKind;
        let mut images: Vec<SystemImage> = [AppKind::Mysql, AppKind::Apache]
            .into_iter()
            .flat_map(|app| {
                let pop = Population::training(app, &PopulationOptions::new(8, 3));
                pop.images().to_vec()
            })
            .collect();
        images.extend([1, 3].map(varied_image));
        let (mut checked, mut decided_by_group) = (0, 0);
        for image in &images {
            let mut users: Vec<&str> = image.accounts().user_list().collect();
            users.extend(["root", "stranger"]);
            let mut paths: Vec<&str> = image.vfs().file_list().collect();
            paths.push("/no/such/path");
            for &user in &users {
                let groups = image.accounts().groups_of(user);
                for &path in &paths {
                    let readable = image.vfs().readable_by(path, user, &groups);
                    let expected = if image.vfs().exists(path) {
                        Applicability::from_bool(!readable)
                    } else {
                        Applicability::NotApplicable
                    };
                    let got = not_accessible(
                        &ConfigValue::path(path),
                        &ConfigValue::str(user),
                        Some(image),
                    );
                    assert_eq!(got, expected, "{} {user} {path}", image.id());
                    checked += 1;
                    decided_by_group +=
                        usize::from(readable != image.vfs().readable_by(path, user, &[]));
                }
            }
        }
        assert!(checked > 1000, "{checked} verdicts");
        assert!(
            decided_by_group > 0,
            "no verdict turned on group membership"
        );
    }
}
