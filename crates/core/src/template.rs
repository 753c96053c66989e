//! Rule templates (§5.1, Table 6, Figures 4 and 6).
//!
//! A template is a relation pattern over *types*, not values: two typed
//! slots plus a relation.  The learner instantiates templates by filling the
//! slots with every eligible attribute pair, so a small set of templates
//! covers a wide range of concrete rules.
//!
//! Templates are written in a concise grammar mirroring the paper's:
//!
//! ```text
//! [A:FilePath] => [B:UserName]        # B owns A
//! [A:FilePath] + [B:PartialFilePath]  # A+B forms an existing path
//! [A:Size] < [B:Size]                 # A smaller than B
//! [A:UserName] in [B:GroupName]       # A belongs to B
//! [A:FilePath] != [B:UserName]        # A not accessible by B
//! ```
//!
//! As in the paper, "the operators carry different meanings for different
//! types" — the `(operator, slot types)` pair resolves to a [`Relation`].

use encore_model::SemType;
use std::fmt;

/// The relation kinds behind the 11 predefined templates of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum Relation {
    /// `[A] == [B]` — equal values of the same type.
    Equal,
    /// `[A] =~ [B]` — some instance of the B entry family equals A.
    MemberEq,
    /// `[A] -> [B]` — boolean implication: A true ⇒ B true.
    ExtBoolImplies,
    /// `[A] < [B]` on IPAddress — A lies inside B's subnet.
    SubnetOf,
    /// `[A] + [B] =>` — concatenating A (FilePath) and B (PartialFilePath)
    /// yields a path that exists in the file system.
    ConcatPath,
    /// `[A] < [B]` on strings — A is a substring of B.
    SubstringOf,
    /// `[A] in [B]` — user A belongs to group B.
    InGroup,
    /// `[A] != [B]` — file path A is *not* accessible by user B.
    NotAccessible,
    /// `[A] => [B]` — user B owns file path A.
    Owns,
    /// `[A] < [B]` on numbers — A numerically less than B.
    LessNum,
    /// `[A] < [B]` on sizes — A smaller than B.
    LessSize,
}

/// The static type signature of a [`Relation`] — which slot-type pairs it
/// admits, whether it is commutative, and whether its validator needs the
/// system environment.
///
/// Signatures make templates *checkable*: an ill-typed template used to be
/// discovered only implicitly, by silently instantiating nothing after a
/// full pass over every attribute pair.  [`Template::validate`] rejects it
/// up front, and the `encore-check` analyzers turn violations into stable
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationSignature {
    /// The relation this signature describes.
    pub relation: Relation,
    /// Whether `rel(a, b)` and `rel(b, a)` are equivalent (only `Equal`).
    pub commutative: bool,
    /// Whether the validator consults the [`encore_sysimage::SystemImage`]
    /// (path existence, account membership, ownership, accessibility).
    pub env_dependent: bool,
    /// Whether a `[A:Str] op [B:Str]` spelling quantifies over *every* type
    /// with the pair constrained to matching types (`==` / `=~`, the
    /// paper's "an entry should equal another entry of the same type").
    pub same_type_generic: bool,
}

impl RelationSignature {
    /// Whether the relation admits slots typed `(a, b)`.
    pub fn admits(&self, a: SemType, b: SemType) -> bool {
        match self.relation {
            // Same-type equality over any type; the Str/Str spelling is the
            // generic quantifier (checked in `same_type_generic`).
            Relation::Equal | Relation::MemberEq => a == b,
            Relation::ExtBoolImplies => a == SemType::Boolean && b == SemType::Boolean,
            Relation::SubnetOf => a == SemType::IpAddress && b == SemType::IpAddress,
            Relation::ConcatPath => a == SemType::FilePath && b == SemType::PartialFilePath,
            Relation::SubstringOf => a == SemType::Str && b == SemType::Str,
            Relation::InGroup => a == SemType::UserName && b == SemType::GroupName,
            Relation::NotAccessible | Relation::Owns => {
                a == SemType::FilePath && b == SemType::UserName
            }
            // Plain numbers and ports compare; sizes have their own
            // template (comparing seconds against bytes is never a
            // correlation) — mirrors `infer::eligible`.
            Relation::LessNum => {
                matches!(a, SemType::Number | SemType::PortNumber)
                    && matches!(b, SemType::Number | SemType::PortNumber)
            }
            Relation::LessSize => a == SemType::Size && b == SemType::Size,
        }
    }

    /// Every `(a, b)` type pair the relation admits, in
    /// [`SemType::PRIORITY`] order.
    pub fn allowed_pairs(&self) -> Vec<(SemType, SemType)> {
        let mut out = Vec::new();
        for a in SemType::PRIORITY {
            for b in SemType::PRIORITY {
                if self.admits(a, b) {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

impl Relation {
    /// Every relation variant, in Table 6 order.  Kept in sync with the
    /// enum by the exhaustiveness test below.
    pub const ALL: [Relation; 11] = [
        Relation::Equal,
        Relation::MemberEq,
        Relation::ExtBoolImplies,
        Relation::SubnetOf,
        Relation::ConcatPath,
        Relation::SubstringOf,
        Relation::InGroup,
        Relation::NotAccessible,
        Relation::Owns,
        Relation::LessNum,
        Relation::LessSize,
    ];

    /// Operator symbol used in the template grammar.
    pub fn symbol(self) -> &'static str {
        match self {
            Relation::Equal => "==",
            Relation::MemberEq => "=~",
            Relation::ExtBoolImplies => "->",
            Relation::SubnetOf => "<",
            Relation::ConcatPath => "+",
            Relation::SubstringOf => "<",
            Relation::InGroup => "in",
            Relation::NotAccessible => "!=",
            Relation::Owns => "=>",
            Relation::LessNum => "<",
            Relation::LessSize => "<",
        }
    }

    /// Human-readable description (matches Table 6).
    pub fn describe(self) -> &'static str {
        match self {
            Relation::Equal => "entry equals another entry of the same type",
            Relation::MemberEq => "one instance of an entry equals an instance of another entry",
            Relation::ExtBoolImplies => "boolean entry implies an extended boolean attribute",
            Relation::SubnetOf => "IP address is within the subnet of another entry",
            Relation::ConcatPath => "concatenation of path and partial path forms a file path",
            Relation::SubstringOf => "entry is a substring of another entry",
            Relation::InGroup => "user name belongs to the group name",
            Relation::NotAccessible => "file path is not accessible by the user in the entry",
            Relation::Owns => "user name entry is the owner of the file path entry",
            Relation::LessNum => "number in one entry is less than that of the other",
            Relation::LessSize => "size in one entry is smaller than that of the other",
        }
    }

    /// The stable name that rule renders, reports and snapshots use
    /// (e.g. `Owns`, `LessSize`); [`Relation::parse_name`] reads it back.
    pub fn name(self) -> &'static str {
        match self {
            Relation::Equal => "Equal",
            Relation::MemberEq => "MemberEq",
            Relation::ExtBoolImplies => "ExtBoolImplies",
            Relation::SubnetOf => "SubnetOf",
            Relation::ConcatPath => "ConcatPath",
            Relation::SubstringOf => "SubstringOf",
            Relation::InGroup => "InGroup",
            Relation::NotAccessible => "NotAccessible",
            Relation::Owns => "Owns",
            Relation::LessNum => "LessNum",
            Relation::LessSize => "LessSize",
        }
    }

    /// Parse a relation [`name`](Relation::name), ignoring case and
    /// surrounding whitespace.
    pub fn parse_name(s: &str) -> Option<Relation> {
        let canon = s.trim();
        Relation::ALL
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(canon))
    }

    /// The static type signature of this relation.
    pub fn signature(self) -> RelationSignature {
        RelationSignature {
            relation: self,
            commutative: self == Relation::Equal,
            env_dependent: matches!(
                self,
                Relation::ConcatPath | Relation::InGroup | Relation::NotAccessible | Relation::Owns
            ),
            same_type_generic: matches!(self, Relation::Equal | Relation::MemberEq),
        }
    }

    /// Resolve `(operator, slot types)` to a relation — the paper's
    /// operator overloading (§5.3.2).
    pub fn resolve(op: &str, a: SemType, b: SemType) -> Option<Relation> {
        match op {
            "==" => Some(Relation::Equal),
            "=~" => Some(Relation::MemberEq),
            "->" => Some(Relation::ExtBoolImplies),
            "in" => Some(Relation::InGroup),
            "!=" => Some(Relation::NotAccessible),
            "=>" => Some(Relation::Owns),
            "+" => Some(Relation::ConcatPath),
            "<" => match (a, b) {
                (SemType::IpAddress, SemType::IpAddress) => Some(Relation::SubnetOf),
                (SemType::Size, SemType::Size) => Some(Relation::LessSize),
                _ if a.is_ordered() && b.is_ordered() => Some(Relation::LessNum),
                (SemType::Str, SemType::Str) => Some(Relation::SubstringOf),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed template slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Slot {
    /// Slot label (`A`, `B`, ... — only used for display).
    pub label: char,
    /// The semantic type eligible attributes must carry.
    pub ty: SemType,
}

/// A template failed static type-checking against its relation signature.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateTypeError {
    /// The slot types are not admitted by the relation's signature.
    IllTyped {
        /// The offending template, rendered.
        template: String,
        /// The relation whose signature rejected the slots.
        relation: Relation,
        /// The offending slot types.
        slots: (SemType, SemType),
    },
    /// The per-template confidence override is outside `(0, 1]`.
    BadConfidence {
        /// The offending template, rendered.
        template: String,
        /// The out-of-range confidence.
        confidence: f64,
    },
}

impl fmt::Display for TemplateTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateTypeError::IllTyped {
                template,
                relation,
                slots,
            } => write!(
                f,
                "template `{template}` is ill-typed: {relation} does not relate {}/{} \
                 (allowed: {})",
                slots.0,
                slots.1,
                render_allowed(relation.signature())
            ),
            TemplateTypeError::BadConfidence {
                template,
                confidence,
            } => write!(
                f,
                "template `{template}` has confidence {confidence} outside (0, 1]"
            ),
        }
    }
}

impl std::error::Error for TemplateTypeError {}

/// Compact rendering of a signature's allowed pairs for error messages.
fn render_allowed(sig: RelationSignature) -> String {
    if sig.same_type_generic {
        return "T/T for any type T".to_string();
    }
    let pairs = sig.allowed_pairs();
    let mut shown: Vec<String> = pairs
        .iter()
        .take(4)
        .map(|(a, b)| format!("{a}/{b}"))
        .collect();
    if pairs.len() > 4 {
        shown.push("...".to_string());
    }
    shown.join(", ")
}

/// A rule template: two typed slots and a relation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Template {
    /// First slot (the paper's `A`).
    pub a: Slot,
    /// Second slot (the paper's `B`).
    pub b: Slot,
    /// The relation connecting them.
    pub relation: Relation,
    /// Optional per-template confidence override (Figure 6 allows
    /// `[A] < [B] -- 90%`); `None` uses the global threshold.
    pub min_confidence: Option<f64>,
}

impl Template {
    /// Create a template.
    pub fn new(a: SemType, relation: Relation, b: SemType) -> Template {
        Template {
            a: Slot { label: 'A', ty: a },
            b: Slot { label: 'B', ty: b },
            relation,
            min_confidence: None,
        }
    }

    /// Attach a per-template confidence threshold.
    pub fn with_min_confidence(mut self, c: f64) -> Template {
        self.min_confidence = Some(c);
        self
    }

    /// Statically type-check this template against its relation signature.
    ///
    /// `Template::new` stays infallible for API compatibility (and so the
    /// `encore-check` analyzers can construct known-bad templates to
    /// diagnose); [`Template::parse`] and the checking layer call this.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateTypeError`] when the slot types are not admitted
    /// by the relation or the confidence override is out of range.
    pub fn validate(&self) -> Result<(), TemplateTypeError> {
        if !self.relation.signature().admits(self.a.ty, self.b.ty) {
            return Err(TemplateTypeError::IllTyped {
                template: self.to_string(),
                relation: self.relation,
                slots: (self.a.ty, self.b.ty),
            });
        }
        if let Some(c) = self.min_confidence {
            if !(c > 0.0 && c <= 1.0) {
                return Err(TemplateTypeError::BadConfidence {
                    template: self.to_string(),
                    confidence: c,
                });
            }
        }
        Ok(())
    }

    /// The 11 predefined templates of Table 6.
    pub fn predefined() -> Vec<Template> {
        vec![
            // [A] == [B]: same-type equality (instantiated over Str).
            Template::new(SemType::Str, Relation::Equal, SemType::Str),
            // [A] =~ [B]: one instance equality (multi-occurrence entries).
            Template::new(SemType::Str, Relation::MemberEq, SemType::Str),
            // [A] -> [B]: extended boolean implication.
            Template::new(SemType::Boolean, Relation::ExtBoolImplies, SemType::Boolean),
            // [A] < [B]: IP subnet.
            Template::new(SemType::IpAddress, Relation::SubnetOf, SemType::IpAddress),
            // [A]+[B] =>: path concatenation exists.
            Template::new(
                SemType::FilePath,
                Relation::ConcatPath,
                SemType::PartialFilePath,
            ),
            // [A] < [B]: substring.
            Template::new(SemType::Str, Relation::SubstringOf, SemType::Str),
            // [A] in [B]: user in group.
            Template::new(SemType::UserName, Relation::InGroup, SemType::GroupName),
            // [A] != [B]: path not accessible by user.
            Template::new(
                SemType::FilePath,
                Relation::NotAccessible,
                SemType::UserName,
            ),
            // [A] => [B]: user owns path.
            Template::new(SemType::FilePath, Relation::Owns, SemType::UserName),
            // [A] < [B]: numeric ordering.
            Template::new(SemType::Number, Relation::LessNum, SemType::Number),
            // [A] < [B]: size ordering.
            Template::new(SemType::Size, Relation::LessSize, SemType::Size),
        ]
    }

    /// Parse the template grammar: `[A:Type] op [B:Type]` with an optional
    /// trailing `-- NN%` confidence, then type-check the result against the
    /// relation signature.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or type problem.  Use
    /// [`Template::parse_syntax`] to obtain the template without the type
    /// check (the `encore-check` linter does, so it can attach a stable
    /// diagnostic code instead of a hard error).
    pub fn parse(text: &str) -> Result<Template, String> {
        let t = Template::parse_syntax(text)?;
        t.validate().map_err(|e| e.to_string())?;
        Ok(t)
    }

    /// Parse the template grammar without the signature type check.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse_syntax(text: &str) -> Result<Template, String> {
        let (body, conf) = match text.split_once("--") {
            Some((b, c)) => {
                let pct = c.trim().trim_end_matches('%');
                let v: f64 = pct
                    .parse()
                    .map_err(|_| format!("bad confidence `{}`", c.trim()))?;
                (b.trim(), Some(v / 100.0))
            }
            None => (text.trim(), None),
        };
        let parse_slot = |s: &str| -> Result<(char, SemType), String> {
            let inner = s
                .trim()
                .strip_prefix('[')
                .and_then(|x| x.strip_suffix(']'))
                .ok_or_else(|| format!("slot `{s}` must be bracketed"))?;
            let (label, ty) = inner
                .split_once(':')
                .ok_or_else(|| format!("slot `{inner}` must be `Label:Type`"))?;
            let label = label.trim().chars().next().ok_or("empty slot label")?;
            let ty =
                SemType::parse_name(ty).ok_or_else(|| format!("unknown type `{}`", ty.trim()))?;
            Ok((label, ty))
        };
        // Grammar: [A:T] OP [B:T] with an optional trailing `=>` marker for
        // the concatenation form `[A] + [B] =>`.
        let close = body.find(']').ok_or("missing `]`")?;
        let (slot_a, rest) = body.split_at(close + 1);
        let open = rest.find('[').ok_or("missing second slot")?;
        let (op, slot_b_and_tail) = rest.split_at(open);
        let close_b = slot_b_and_tail.rfind(']').ok_or("missing closing `]`")?;
        let (slot_b, tail) = slot_b_and_tail.split_at(close_b + 1);
        let tail = tail.trim();
        if !tail.is_empty() && tail != "=>" {
            return Err(format!("unexpected trailing `{tail}`"));
        }
        let (label_a, ty_a) = parse_slot(slot_a)?;
        let (label_b, ty_b) = parse_slot(slot_b)?;
        let op = op.trim();
        let relation = Relation::resolve(op, ty_a, ty_b)
            .ok_or_else(|| format!("operator `{op}` undefined for {ty_a}/{ty_b}"))?;
        let mut t = Template {
            a: Slot {
                label: label_a,
                ty: ty_a,
            },
            b: Slot {
                label: label_b,
                ty: ty_b,
            },
            relation,
            min_confidence: None,
        };
        if let Some(c) = conf {
            t = t.with_min_confidence(c);
        }
        Ok(t)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{}] {} [{}:{}]",
            self.a.label,
            self.a.ty,
            self.relation.symbol(),
            self.b.label,
            self.b.ty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_count_matches_table_6() {
        assert_eq!(Template::predefined().len(), 11);
    }

    #[test]
    fn operator_overloading_by_type() {
        assert_eq!(
            Relation::resolve("<", SemType::Size, SemType::Size),
            Some(Relation::LessSize)
        );
        assert_eq!(
            Relation::resolve("<", SemType::Number, SemType::Number),
            Some(Relation::LessNum)
        );
        assert_eq!(
            Relation::resolve("<", SemType::IpAddress, SemType::IpAddress),
            Some(Relation::SubnetOf)
        );
        assert_eq!(
            Relation::resolve("<", SemType::Str, SemType::Str),
            Some(Relation::SubstringOf)
        );
        assert_eq!(
            Relation::resolve("<", SemType::Boolean, SemType::Boolean),
            None
        );
    }

    #[test]
    fn parse_ownership_template() {
        let t = Template::parse("[A:FilePath] => [B:UserName]").unwrap();
        assert_eq!(t.relation, Relation::Owns);
        assert_eq!(t.a.ty, SemType::FilePath);
        assert_eq!(t.b.ty, SemType::UserName);
    }

    #[test]
    fn parse_with_confidence() {
        let t = Template::parse("[A:Size] < [B:Size] -- 90%").unwrap();
        assert_eq!(t.relation, Relation::LessSize);
        assert_eq!(t.min_confidence, Some(0.9));
    }

    #[test]
    fn parse_concat_template() {
        let t = Template::parse("[A:FilePath] + [B:PartialFilePath] =>").unwrap();
        assert_eq!(t.relation, Relation::ConcatPath);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Template::parse("[A:FilePath] ?? [B:UserName]").is_err());
        assert!(Template::parse("[A:NotAType] == [B:Str]").is_err());
        assert!(Template::parse("A == B").is_err());
        assert!(Template::parse("[A:Size] < [B:Size] -- lots").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for t in Template::predefined() {
            let shown = t.to_string();
            let back = Template::parse(&shown).expect(&shown);
            assert_eq!(back.relation, t.relation, "{shown}");
            assert_eq!(back.a.ty, t.a.ty);
            assert_eq!(back.b.ty, t.b.ty);
        }
    }

    #[test]
    fn all_lists_every_relation_once() {
        let mut seen = std::collections::HashSet::new();
        for r in Relation::ALL {
            assert!(seen.insert(r), "duplicate {r:?}");
        }
        // Exhaustiveness pin: resolving every operator over every type pair
        // must never produce a relation missing from ALL.
        for op in ["==", "=~", "->", "in", "!=", "=>", "+", "<"] {
            for a in SemType::PRIORITY {
                for b in SemType::PRIORITY {
                    if let Some(r) = Relation::resolve(op, a, b) {
                        assert!(seen.contains(&r), "{r:?} missing from Relation::ALL");
                    }
                }
            }
        }
    }

    #[test]
    fn relation_names_round_trip() {
        for r in Relation::ALL {
            // The names are the variant names snapshots have always stored.
            assert_eq!(r.name(), format!("{r:?}"));
            assert_eq!(Relation::parse_name(r.name()), Some(r));
            assert_eq!(r.to_string(), r.name());
        }
        assert_eq!(Relation::parse_name("NotARelation"), None);
    }

    #[test]
    fn signatures_agree_with_operator_resolution() {
        // Every admitted slot-type pair must resolve — through the paper's
        // operator overloading — back to the same relation, so the
        // signature table and `resolve` cannot drift apart.
        for r in Relation::ALL {
            let sig = r.signature();
            let pairs = sig.allowed_pairs();
            assert!(!pairs.is_empty(), "{r:?} admits no pairs");
            for (a, b) in pairs {
                assert_eq!(
                    Relation::resolve(r.symbol(), a, b),
                    Some(r),
                    "{r:?} admits {a}/{b} but `{}` does not resolve to it",
                    r.symbol()
                );
            }
        }
    }

    #[test]
    fn commutative_signatures_admit_symmetrically() {
        for r in Relation::ALL {
            let sig = r.signature();
            if sig.commutative {
                for (a, b) in sig.allowed_pairs() {
                    assert!(sig.admits(b, a), "{r:?} commutative but {b}/{a} rejected");
                }
            }
        }
    }

    #[test]
    fn predefined_templates_all_validate() {
        for t in Template::predefined() {
            t.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn ill_typed_templates_rejected_at_parse() {
        // `==` resolves for any types, but the signature demands same-type.
        let err = Template::parse("[A:Number] == [B:FilePath]").unwrap_err();
        assert!(err.contains("ill-typed"), "{err}");
        // `<` resolves Size/Number to LessNum, but the signature separates
        // sizes from plain numbers.
        assert!(Template::parse("[A:Size] < [B:Number]").is_err());
        // The syntax-only parser accepts both so linters can diagnose them.
        let t = Template::parse_syntax("[A:Number] == [B:FilePath]").unwrap();
        assert_eq!(t.relation, Relation::Equal);
        assert!(t.validate().is_err());
    }

    #[test]
    fn out_of_range_confidence_rejected() {
        let t = Template::new(SemType::Size, Relation::LessSize, SemType::Size)
            .with_min_confidence(1.5);
        assert!(matches!(
            t.validate(),
            Err(TemplateTypeError::BadConfidence { .. })
        ));
        assert!(Template::parse("[A:Size] < [B:Size] -- 150%").is_err());
    }
}
