//! The attribute type map: merged per-entry types across the training set.
//!
//! Type inference runs per system; types can disagree across systems (a
//! path exists on one image and not another).  The trainer merges them by
//! majority vote, preferring non-trivial types on ties — the stored "type
//! information inferred from the training set" that both the rule learner
//! and the anomaly detector consume (§4.2, §6).

use encore_model::{AttrName, Augmentation, SemType};
use std::collections::BTreeMap;

/// Semantic type of every attribute seen in training.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeMap {
    types: BTreeMap<AttrName, SemType>,
}

/// The fixed types of Table 5a's augmented attributes, keyed by suffix.
pub fn augmented_suffix_type(suffix: &str) -> SemType {
    match suffix {
        "owner" => SemType::UserName,
        "group" | "isGroup" => SemType::GroupName,
        "type" => SemType::Enum,
        "permission" => SemType::Permission,
        "contents" => SemType::Str,
        "hasDir" | "hasSymLink" | "secDenied" | "Local" | "IPv6" | "AnyAddr" | "isRootGroup"
        | "isAdmin" => SemType::Boolean,
        _ => SemType::Str,
    }
}

/// Types of the system-wide attributes of Table 5b, keyed by name.
pub fn system_attr_type(name: &str) -> SemType {
    match name {
        "Sys.IPAddress" => SemType::IpAddress,
        "CPU.Threads" | "CPU.Freq" | "MemSize" | "HDD.AvailSpace" => SemType::Number,
        _ => SemType::Str,
    }
}

impl TypeMap {
    /// An empty map.
    pub fn new() -> TypeMap {
        TypeMap::default()
    }

    /// Merge per-system inferred types for the *original* entries by
    /// majority vote (ties broken toward the more specific type, i.e. the
    /// earlier entry in [`SemType::PRIORITY`]).
    pub fn merge_votes(votes: &BTreeMap<AttrName, Vec<SemType>>) -> TypeMap {
        let mut types = BTreeMap::new();
        for (attr, tys) in votes {
            let mut counts: BTreeMap<SemType, usize> = BTreeMap::new();
            for t in tys {
                *counts.entry(*t).or_insert(0) += 1;
            }
            let winner = counts
                .iter()
                .max_by_key(|(ty, count)| {
                    let specificity = SemType::PRIORITY.len()
                        - SemType::PRIORITY
                            .iter()
                            .position(|p| p == *ty)
                            .unwrap_or(SemType::PRIORITY.len());
                    (**count, specificity)
                })
                .map(|(ty, _)| *ty)
                .unwrap_or(SemType::Str);
            types.insert(attr.clone(), winner);
        }
        TypeMap { types }
    }

    /// Set the type of an attribute explicitly.
    pub fn set(&mut self, attr: AttrName, ty: SemType) {
        self.types.insert(attr, ty);
    }

    /// The type of an attribute.
    ///
    /// Original entries answer from the merged votes; augmented attributes
    /// answer from the fixed Table 5a/5b assignments, so the map never needs
    /// to store them.
    pub fn type_of(&self, attr: &AttrName) -> SemType {
        if let Some(t) = self.types.get(attr) {
            return *t;
        }
        match attr.augmentation() {
            Augmentation::EnvProperty => augmented_suffix_type(attr.suffix().unwrap_or_default()),
            Augmentation::SystemWide => system_attr_type(attr.base()),
            Augmentation::Original => SemType::Str,
        }
    }

    /// Iterate the explicitly stored (original-entry) types.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &SemType)> {
        self.types.iter()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// The map [`TypeMap::set`] of each pair in turn leaves: a later type for
/// an attribute replaces an earlier one.  Built with one sort, not one
/// insert per pair.
impl FromIterator<(AttrName, SemType)> for TypeMap {
    fn from_iter<I: IntoIterator<Item = (AttrName, SemType)>>(pairs: I) -> TypeMap {
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        encore_model::row::sort_keep_last(&mut pairs);
        TypeMap {
            types: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_vote_wins() {
        let mut votes = BTreeMap::new();
        votes.insert(
            AttrName::entry("datadir"),
            vec![SemType::FilePath, SemType::FilePath, SemType::Str],
        );
        let map = TypeMap::merge_votes(&votes);
        assert_eq!(map.type_of(&AttrName::entry("datadir")), SemType::FilePath);
    }

    #[test]
    fn tie_prefers_specific_type() {
        let mut votes = BTreeMap::new();
        votes.insert(AttrName::entry("x"), vec![SemType::FilePath, SemType::Str]);
        let map = TypeMap::merge_votes(&votes);
        assert_eq!(map.type_of(&AttrName::entry("x")), SemType::FilePath);
    }

    #[test]
    fn augmented_types_are_fixed() {
        let map = TypeMap::new();
        let datadir = AttrName::entry("datadir");
        assert_eq!(map.type_of(&datadir.augmented("owner")), SemType::UserName);
        assert_eq!(
            map.type_of(&datadir.augmented("hasSymLink")),
            SemType::Boolean
        );
        assert_eq!(
            map.type_of(&datadir.augmented("permission")),
            SemType::Permission
        );
        assert_eq!(
            map.type_of(&AttrName::system("Sys.IPAddress")),
            SemType::IpAddress
        );
        assert_eq!(map.type_of(&AttrName::system("MemSize")), SemType::Number);
    }

    #[test]
    fn collecting_keeps_the_last_type_of_an_attribute() {
        let pairs = [
            (AttrName::entry("port"), SemType::Str),
            (AttrName::entry("datadir"), SemType::FilePath),
            (AttrName::entry("port"), SemType::PortNumber),
        ];
        let collected: TypeMap = pairs.iter().cloned().collect();
        let mut set = TypeMap::new();
        for (attr, ty) in pairs {
            set.set(attr, ty);
        }
        assert_eq!(collected, set);
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn unknown_original_defaults_to_str() {
        let map = TypeMap::new();
        assert_eq!(map.type_of(&AttrName::entry("nonesuch")), SemType::Str);
    }
}
