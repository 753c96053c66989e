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
use encore_model::{AttrName, Column, ColumnStore, ConfigValue, Row};
use encore_sysimage::SystemImage;
use std::borrow::Cow;

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
    let image = match image {
        Some(i) => i,
        None => return Applicability::NotApplicable,
    };
    let (dir, frag) = match (va.as_str(), vb.as_str()) {
        (Some(d), Some(f)) => (d, f),
        _ => return Applicability::NotApplicable,
    };
    let full = format!(
        "{}/{}",
        dir.trim_end_matches('/'),
        frag.trim_start_matches('/')
    );
    Applicability::from_bool(image.vfs().exists(&full))
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
    if !image.vfs().exists(path) {
        return Applicability::NotApplicable;
    }
    let groups = image.accounts().groups_of(user);
    Applicability::from_bool(!image.vfs().readable_by(path, user, &groups))
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

/// Row-independent evaluation strategy of one `(a, relation, b)` pair over
/// the columnar store — resolved once per pair instead of once per row.
/// Only the relations whose inputs are laid out differently in columns get
/// their own strategy; every other relation is decided by [`decide`].
enum PairKind<'c> {
    /// `Equal`: compare interned render classes (≡ comparing rendered
    /// strings).
    RenderEqual,
    /// `MemberEq`: the b-entry family, read off the cache's family table —
    /// the per-row scan over every row cell becomes a probe of just these
    /// columns.
    MemberEq {
        /// Indices of the attributes sharing b's occurrence-stripped base and
        /// suffix, ascending.
        family: &'c [usize],
    },
    /// `Owns`: the `a.owner` augmented column, if the dataset has one.
    Owns { owner: Option<&'c Column> },
    /// Any other relation, decided from the two interned values.
    Values(Relation),
}

/// Columnar validator for one attribute pair: scans the two value-id
/// columns' presence intersection one 64-row word at a time, with all
/// row-independent work (render classes, the `=~` family, the `.owner`
/// column) hoisted out of the row loop.  For every row it reproduces
/// [`evaluate`] exactly — same helpers, same gating, same tri-state — so
/// the tallies are bit-identical to the row-major path
/// (`columnar_tally_matches_the_row_verdict` pins this per relation).
pub(crate) struct PairEvaluator<'c> {
    store: &'c ColumnStore,
    col_a: &'c Column,
    col_b: &'c Column,
    kind: PairKind<'c>,
}

impl<'c> PairEvaluator<'c> {
    /// Resolve the evaluation strategy for the pair of attributes at sorted
    /// indices `a_index` / `b_index` of `cache`.
    pub(crate) fn new(
        relation: Relation,
        cache: &'c StatsCache,
        a_index: usize,
        b_index: usize,
    ) -> PairEvaluator<'c> {
        let store = cache.columns();
        let kind = match relation {
            Relation::Equal => PairKind::RenderEqual,
            Relation::MemberEq => PairKind::MemberEq {
                family: cache.family(b_index),
            },
            Relation::Owns => PairKind::Owns {
                owner: cache
                    .attr_index(&cache.attributes()[a_index].augmented("owner"))
                    .map(|j| store.column(j)),
            },
            other => PairKind::Values(other),
        };
        PairEvaluator {
            store,
            col_a: store.column(a_index),
            col_b: store.column(b_index),
            kind,
        }
    }

    /// Tally `(holds, applicable)` over every training system, given its
    /// images in row order — the counts [`crate::infer`] turns into a
    /// candidate's support and confidence.
    pub(crate) fn tally(&self, images: &[SystemImage]) -> (usize, usize) {
        let mut holds = 0usize;
        let mut applicable = 0usize;
        let words = self.col_a.presence().iter().zip(self.col_b.presence());
        for (w, (wa, wb)) in words.enumerate() {
            // Both slots must be present — the same gate `evaluate` applies
            // before dispatching any relation.
            let mut both = wa & wb;
            while both != 0 {
                let i = w * 64 + both.trailing_zeros() as usize;
                both &= both - 1;
                match self.eval_row(i, &images[i]) {
                    Applicability::Holds => {
                        holds += 1;
                        applicable += 1;
                    }
                    Applicability::Violated => applicable += 1,
                    Applicability::NotApplicable => {}
                }
            }
        }
        (holds, applicable)
    }

    /// Evaluate the pair on row `i` (whose presence bits are known set).
    fn eval_row(&self, i: usize, image: &SystemImage) -> Applicability {
        let interner = self.store.interner();
        let va_id = self.col_a.value_id(i).expect("presence bit set for a");
        let vb_id = self.col_b.value_id(i).expect("presence bit set for b");
        match &self.kind {
            PairKind::RenderEqual => Applicability::from_bool(
                interner.render_class(va_id) == interner.render_class(vb_id),
            ),
            PairKind::MemberEq { family } => {
                let target = interner.render_class(va_id);
                let mut seen_any = false;
                for &j in *family {
                    if let Some(member) = self.store.column(j).value_id(i) {
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
            }
            PairKind::Owns { owner } => {
                // A present `.owner` cell decides, an absent one falls
                // through to the VFS, as in the row path.
                let owner = owner
                    .and_then(|column| column.value_id(i))
                    .map(|id| interner.render_of(id));
                owns(
                    interner.value(va_id),
                    interner.value(vb_id),
                    owner,
                    Some(image),
                )
            }
            PairKind::Values(relation) => decide(
                *relation,
                interner.value(va_id),
                interner.value(vb_id),
                Some(image),
            ),
        }
    }
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
                    PairEvaluator::new(relation, &cache, ai, bi).tally(std::slice::from_ref(&img)),
                    expected,
                    "{relation:?} with owner cell {owner:?}"
                );
            }
        }
    }
}
